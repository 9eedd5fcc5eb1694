// Fig. 2 ablation: how the quality of the ring waveguide construction
// (optimal vs long detour vs crossing) propagates into router metrics.
// The paper motivates Step 1 with exactly these three 16-node rings.

#include <cstdio>

#include "report/table.hpp"
#include "xring/synthesizer.hpp"

namespace {

using namespace xring;

SynthesisResult with_tour(const netlist::Floorplan& fp,
                          const std::vector<netlist::NodeId>& order) {
  Synthesizer synth(fp);
  ring::RingBuildResult ring;
  ring.geometry = ring::realize(ring::Tour(order, &fp), fp);
  ring.mip_status = milp::MipStatus::kFeasible;
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 16;
  opt.build_pdn = false;
  return synth.run_with_ring(opt, ring);
}

void row(report::Table& t, const char* name, const SynthesisResult& r) {
  double mean = 0;
  for (const auto& s : r.metrics.signals) mean += s.loss.star_db();
  mean /= static_cast<double>(r.metrics.signals.size());
  t.add_row({name,
             report::num(r.design.ring.tour.total_length() / 1000.0, 1),
             std::to_string(r.design.ring.crossings),
             report::num(r.metrics.il_star_worst_db, 2), report::num(mean, 2),
             report::num(r.metrics.worst_path_mm, 1)});
}

}  // namespace

int main() {
  std::printf("=== Ablation (Fig. 2): ring construction quality ===\n");
  std::printf("ring: total ring length (mm); X: crossings in the ring;\n");
  std::printf("il_w/mean: worst/mean insertion loss (dB); L: worst path\n\n");

  const auto fp = netlist::Floorplan::standard(16);
  report::Table t({"construction", "ring", "X", "il_w", "il_mean", "L"});

  // (a) the optimized ring from Step 1's MILP.
  {
    Synthesizer synth(fp);
    SynthesisOptions opt;
    opt.mapping.max_wavelengths = 16;
    opt.build_pdn = false;
    row(t, "optimal (Fig. 2a)", synth.run(opt));
  }

  // (b) a long detour: row-major order zig-zags back across the die at the
  // end of every row.
  row(t, "detour (Fig. 2b)",
      with_tour(fp, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}));

  // (c) a crossing: hops (4,7) and (13,1) are full-span straight segments
  // (row y=2000 and column x=2000) that transversally cross at (2000,2000)
  // in every realization.
  row(t, "crossing (Fig. 2c)",
      with_tour(fp, {0, 4, 7, 11, 15, 14, 13, 1, 2, 3, 6, 5, 9, 10, 8, 12}));

  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
