// Reproduces Table III: ORing vs XRing for a 16-node network WITH PDNs, at
// the #wl settings minimizing power and maximizing SNR. Same columns as
// Table II. ORing is the manually designed ring router of [17]: the same
// wavelength-assignment method XRing adopts, but no shortcuts and no
// openings, so its comb PDN must cross the ring waveguides.

#include <cstdio>

#include "baseline/oring.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "report/run_report.hpp"
#include "report/table.hpp"
#include "xring/sweep.hpp"

namespace {

using namespace xring;

void add_row(report::Table& t, const char* name, const SweepResult& r,
             bool manual_time) {
  const analysis::RouterMetrics& m = r.result.metrics;
  t.add_row({name, std::to_string(m.wavelengths),
             report::num(m.il_star_worst_db, 2),
             report::num(m.worst_path_mm, 1),
             std::to_string(m.worst_crossings),
             report::num(m.total_power_w, 2), std::to_string(m.noisy_signals),
             report::snr(m.snr_worst_db),
             // The paper lists "n/a" for ORing: its ring was drawn by hand.
             manual_time ? "n/a" : report::num(r.result.seconds, 2)});
}

}  // namespace

int main() {
  // Record spans/series for the HTML run report.
  obs::Context ctx;
  const obs::ScopedContext scope(ctx);
  std::printf("=== Table III: ORing vs XRing, 16-node network ===\n\n");
  const int n = 16;
  const auto params = phys::Parameters::oring();
  const auto fp = netlist::Floorplan::standard(n);
  Synthesizer synth(fp);
  const auto ring = ring::build_ring(fp, synth.oracle(), {});

  auto oring_at = [&](int wl) {
    baseline::OringOptions o;
    o.max_wavelengths = wl;
    o.params = params;
    return baseline::synthesize_oring(fp, ring, o);
  };
  SynthesisOptions base;
  base.params = params;
  // Shortcut plan + arc table are #wl-independent: built once, shared
  // read-only across the sweep (same reuse sweep_xring performs).
  const SweepCache cache = synth.make_sweep_cache(base, ring);
  auto xring_at = [&](int wl) {
    SynthesisOptions o = base;
    o.mapping.max_wavelengths = wl;
    return synth.run_with_ring(o, ring, &cache);
  };

  for (const SweepGoal goal : {SweepGoal::kMinPower, SweepGoal::kMaxSnr}) {
    report::Table t({"router", "#wl", "il*_w", "L", "C", "P", "#s", "SNR_w", "T"});
    // Same [N/2, N] setting space as Table II.
    add_row(t, "ORing", sweep(oring_at, goal, n / 2, n), /*manual_time=*/true);
    add_row(t, "XRing", sweep(xring_at, goal, n / 2, n), /*manual_time=*/false);
    std::printf("The setting for %s\n%s\n",
                goal == SweepGoal::kMinPower ? "min. power" : "max. SNR",
                t.to_string().c_str());
    t.to_metrics(std::string("table3.n16.") +
                     (goal == SweepGoal::kMinPower ? "min_power" : "max_snr"),
                 obs::registry());
  }

  // The paper's prose claims for this comparison, computed live.
  const auto oring = sweep(oring_at, SweepGoal::kMinPower, n / 2, n);
  const auto xr = sweep(xring_at, SweepGoal::kMinPower, n / 2, n);
  const int total = xr.result.design.traffic.size();
  std::printf("Derived claims:\n");
  std::printf("  laser power reduction:   %.0f%% (paper: 10%%)\n",
              100.0 * (1.0 - xr.result.metrics.total_power_w /
                                 oring.result.metrics.total_power_w));
  std::printf("  ORing signals w/ noise:  %.0f%% (paper: 87%%)\n",
              100.0 * oring.result.metrics.noisy_signals / total);
  std::printf("  XRing signals w/ noise:  %.0f%% (paper: 1%%)\n",
              100.0 * xr.result.metrics.noisy_signals / total);
  obs::write_metrics_json("BENCH_table3.json", ctx.registry());
  std::fprintf(stderr, "machine-readable report written to BENCH_table3.json\n");
  report::RunReportOptions ropt;
  ropt.title = "Table III bench: ORing vs XRing, 16 nodes";
  // The min-power XRing design is in scope: include its loss waterfall and
  // crosstalk attribution in the report.
  report::write_run_report_html("BENCH_table3.html", ctx.registry(),
                                &xr.result.design, &xr.result.metrics, ropt);
  std::fprintf(stderr, "run report written to BENCH_table3.html\n");
  return 0;
}
