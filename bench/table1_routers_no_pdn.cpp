// Reproduces Table I: 8- and 16-node WRONoC routers WITHOUT PDNs.
// Columns: Tool/Method, Router, #wl, il_w (dB), L (mm), C, T (s).
//
// Crossbar rows use the topology generators plus the physical-synthesis
// styles standing in for Proton+/PlanarONoC/ToPro (DESIGN.md, substitution
// table). Ring rows run the real pipelines. Loss parameters: Proton+ [15].

#include <cstdio>

#include "baseline/oring.hpp"
#include "baseline/ornoc.hpp"
#include "crossbar/physical.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "report/run_report.hpp"
#include "report/table.hpp"
#include "xring/sweep.hpp"

namespace {

using namespace xring;

void crossbar_row(report::Table& t, const char* tool,
                  const crossbar::Topology& topo,
                  crossbar::SynthesisStyle style,
                  const netlist::Floorplan& fp,
                  const phys::Parameters& params) {
  const crossbar::CrossbarMetrics m =
      crossbar::PhysicalSynthesis(topo, fp, style, params).evaluate();
  t.add_row({tool, topo.name(), std::to_string(m.wavelengths),
             report::num(m.il_worst_db, 1), report::num(m.worst_path_mm, 1),
             std::to_string(m.worst_crossings), report::num(m.seconds, 2)});
}

void ring_row(report::Table& t, const char* name,
              const analysis::RouterMetrics& m, double seconds) {
  t.add_row({name, "ring", std::to_string(m.wavelengths),
             report::num(m.il_worst_db, 1), report::num(m.worst_path_mm, 1),
             std::to_string(m.worst_crossings), report::num(seconds, 2)});
}

void run_network(int n) {
  const auto params = phys::Parameters::proton_plus();
  const auto fp = netlist::Floorplan::standard(n);

  report::Table t({"Tool/Method", "Router", "#wl", "il_w", "L", "C", "T"});

  // Crossbar tools (Proton+ and PlanarONoC synthesize the λ-router; ToPro
  // synthesizes GWOR at 8 nodes and Light at 16, as in the paper).
  const crossbar::LambdaRouter lambda(n);
  crossbar_row(t, "Proton+", lambda, crossbar::SynthesisStyle::kNaive, fp,
               params);
  crossbar_row(t, "PlanarONoC", lambda, crossbar::SynthesisStyle::kPlanarized,
               fp, params);
  if (n == 8) {
    const crossbar::Gwor gwor(n);
    crossbar_row(t, "ToPro", gwor, crossbar::SynthesisStyle::kCompact, fp,
                 params);
  } else {
    const crossbar::Light light(n);
    crossbar_row(t, "ToPro", light, crossbar::SynthesisStyle::kCompact, fp,
                 params);
  }

  // Ring routers, no PDN. Each picks the #wl setting minimizing worst loss
  // ("we try different settings of #wl and pick the one with the minimized
  // worst-case insertion loss").
  Synthesizer synth(fp);
  const auto ring = ring::build_ring(fp, synth.oracle(), {});

  const SweepResult ornoc = sweep(
      [&](int wl) {
        baseline::OrnocOptions o;
        o.max_wavelengths = wl;
        o.with_pdn = false;
        o.params = params;
        return baseline::synthesize_ornoc(fp, ring, o);
      },
      SweepGoal::kMinWorstLoss, n / 2, n);
  ring_row(t, "ORNoC", ornoc.result.metrics, ornoc.seconds);

  const SweepResult oring = sweep(
      [&](int wl) {
        baseline::OringOptions o;
        o.max_wavelengths = wl;
        o.with_pdn = false;
        o.params = params;
        return baseline::synthesize_oring(fp, ring, o);
      },
      SweepGoal::kMinWorstLoss, n / 2, n);
  ring_row(t, "ORing", oring.result.metrics, oring.seconds);

  SynthesisOptions base;
  base.build_pdn = false;
  // Openings exist solely to let the PDN in; without a PDN they would only
  // constrain the mapping.
  base.openings.enable = false;
  base.params = params;
  // Shortcut plan + arc table are #wl-independent: built once, shared
  // read-only across the sweep (same reuse sweep_xring performs).
  const SweepCache cache = synth.make_sweep_cache(base, ring);
  const SweepResult xr = sweep(
      [&](int wl) {
        SynthesisOptions o = base;
        o.mapping.max_wavelengths = wl;
        return synth.run_with_ring(o, ring, &cache);
      },
      SweepGoal::kMinWorstLoss, n / 2, n);
  ring_row(t, "XRing", xr.result.metrics, ring.seconds + xr.seconds);

  std::printf("%d-node network (no PDNs)\n%s\n", n, t.to_string().c_str());
  t.to_metrics("table1.n" + std::to_string(n), obs::registry());
}

}  // namespace

int main() {
  // Record spans/series for the HTML run report.
  obs::Context ctx;
  const obs::ScopedContext scope(ctx);
  std::printf("=== Table I: WRONoC routers without PDNs ===\n");
  std::printf("il_w: worst-case insertion loss (dB); L: path length of the\n");
  std::printf("max-loss signal (mm); C: crossings on that path; T: time (s)\n\n");
  run_network(8);
  run_network(16);
  obs::write_metrics_json("BENCH_table1.json", ctx.registry());
  std::fprintf(stderr, "machine-readable report written to BENCH_table1.json\n");
  report::RunReportOptions ropt;
  ropt.title = "Table I bench: WRONoC routers without PDNs";
  report::write_run_report_html("BENCH_table1.html", ctx.registry(), nullptr,
                                nullptr, ropt);
  std::fprintf(stderr, "run report written to BENCH_table1.html\n");
  return 0;
}
