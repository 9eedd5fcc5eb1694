// Custom floorplan: synthesize a router for an irregular MPSoC whose
// network interfaces are NOT on a neat grid — the situation the paper's
// automation argument is about ("when the position of network nodes
// changes, it can be difficult to manually determine the optimal design").
//
// The layout models a heterogeneous 12-core die: two big cores, a GPU
// cluster, memory controllers at the edges.

#include <cstdio>

#include "report/table.hpp"
#include "xring/synthesizer.hpp"

int main() {
  using namespace xring;

  std::vector<netlist::Node> nodes;
  const struct {
    const char* name;
    geom::Point at;  // micrometres
  } blocks[] = {
      {"big0", {1200, 900}},    {"big1", {4100, 700}},
      {"gpu0", {7600, 1400}},   {"gpu1", {9300, 3200}},
      {"mc0", {9600, 6100}},    {"io0", {8200, 8700}},
      {"lil0", {5900, 9100}},   {"lil1", {3400, 8800}},
      {"mc1", {800, 8300}},     {"lil2", {500, 5600}},
      {"dsp", {2300, 4400}},    {"npu", {5200, 5200}},
  };
  for (const auto& b : blocks) nodes.push_back({0, b.at, b.name});
  const netlist::Floorplan floorplan(std::move(nodes), 10500, 10000);

  const Synthesizer synthesizer(floorplan);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 12;
  const SynthesisResult r = synthesizer.run(opt);

  std::printf("ring order       :");
  for (const netlist::NodeId v : r.design.ring.tour.order()) {
    std::printf(" %s", floorplan.node(v).name.c_str());
  }
  std::printf("\nring length      : %.1f mm (crossings: %d)\n",
              r.design.ring.tour.total_length() / 1000.0,
              r.design.ring.crossings);
  std::printf("MILP             : %s, %ld nodes, %d lazy conflict cuts\n",
              milp::to_string(r.ring_stats.mip_status).c_str(),
              r.ring_stats.bnb_nodes, r.ring_stats.lazy_cuts);

  std::printf("shortcuts        : %zu\n", r.design.shortcuts.shortcuts.size());
  for (const auto& s : r.design.shortcuts.shortcuts) {
    std::printf("  %s <-> %s (gain %.1f mm)\n",
                floorplan.node(s.a).name.c_str(),
                floorplan.node(s.b).name.c_str(), s.gain / 1000.0);
  }

  // The five lossiest signals, itemized.
  std::vector<int> ids(r.metrics.signals.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::sort(ids.begin(), ids.end(), [&](int a, int b) {
    return r.metrics.signals[a].loss.star_db() >
           r.metrics.signals[b].loss.star_db();
  });
  report::Table t({"signal", "il* (dB)", "path (mm)", "crossings", "MRR passes"});
  for (int k = 0; k < 5; ++k) {
    const auto& sig = r.design.traffic.signal(ids[k]);
    const analysis::LossBreakdown& loss = r.metrics.signals[ids[k]].loss;
    t.add_row({floorplan.node(sig.src).name + " -> " +
                   floorplan.node(sig.dst).name,
               report::num(loss.star_db(), 2), report::num(loss.path_mm, 1),
               std::to_string(loss.crossings),
               std::to_string(loss.through_mrrs)});
  }
  std::printf("\nworst five signal paths:\n%s", t.to_string().c_str());
  std::printf("\ntotal laser power: %.2f W, worst SNR: %s dB\n",
              r.metrics.total_power_w,
              report::snr(r.metrics.snr_worst_db).c_str());
  return 0;
}
