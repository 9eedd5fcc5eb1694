// Scaling beyond the paper: the paper stops at 32 nodes; this bench pushes
// the full flow to 48 and 64 (MILP for the paper's sizes, the certified
// heuristic fallback above) and reports how cost metrics and synthesis time
// grow. Each size runs a #wl sweep twice — serial (jobs=1) and on the full
// pool (jobs=N) — so the table doubles as the parallel-substrate scaling
// check: the T1/TN/speedup columns quantify the win, and the run aborts if
// any metric differs between the two (the substrate's determinism contract).
//
// The per-stage resource profile (one Steps 2-4 + evaluation run per size
// on a fixed serpentine ring, through n=1024 by default) adds the memory
// dimension: wall time and sampled peak RSS per pipeline stage, plus a
// log-log least-squares fit of the measured O(n^k) per stage. Each run goes
// through the production sweep path — make_sweep_cache builds the shared
// shortcut plan / arc table / ring substrate once, and the "cache" column
// reports that build (inclusive of the "sc" shortcut step nested in it) —
// so the "eval" column measures exactly what a #wl sweep setting pays. Sizes <= 64 run a second, unprofiled synthesis and
// the quality metrics must match exactly — the determinism gate extended
// over the profiling layer itself.
//
// Options: --ring N (CI smoke: one exact MILP solve at N), --ring-budgeted N
// (CI smoke: one budgeted-LNS build at N, certified gap gated), --events FILE
// (write the smoke run's solver telemetry JSONL), --max-ring N (cap the
// exact MILP table), --budget-ring N (enable budgeted table rows up to N),
// --max-n N (cap the resource profile).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/memprof.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "par/pool.hpp"
#include "report/table.hpp"
#include "ring/builder.hpp"
#include "ring/conflict.hpp"
#include "xring/sweep.hpp"

namespace {

using namespace xring;

struct GridShape {
  int rows = 1;
  int cols = 1;
};

GridShape grid_shape(int n) {
  return n == 16    ? GridShape{4, 4}
         : n == 32  ? GridShape{4, 8}
         : n == 48  ? GridShape{6, 8}
         : n == 64  ? GridShape{8, 8}
         : n == 96  ? GridShape{8, 12}
         : n == 128 ? GridShape{8, 16}
         : n == 192 ? GridShape{12, 16}
         : n == 256 ? GridShape{16, 16}
         : n == 384 ? GridShape{16, 24}
         : n == 512 ? GridShape{16, 32}
         : n == 768 ? GridShape{24, 32}
         : n == 1024 ? GridShape{32, 32}
                    : GridShape{1, n};
}

netlist::Floorplan ring_floorplan(int n) {
  const GridShape g = grid_shape(n);
  return netlist::Floorplan::grid(g.rows, g.cols, 2000);
}

/// A fixed boustrophedon Hamiltonian cycle on the grid: serpentine over
/// columns 1..cols-1 row by row, return up column 0. Crossing-free for even
/// row counts (every profiled size). O(n) to build — the resource profile
/// uses it so Step-1 search cost (the ring table's subject) doesn't bury
/// the downstream stages at n=256.
ring::RingBuildResult serpentine_ring(const netlist::Floorplan& fp,
                                      GridShape g) {
  std::vector<netlist::NodeId> order;
  order.reserve(static_cast<std::size_t>(g.rows) * g.cols);
  if (g.rows >= 2 && g.cols >= 2) {
    for (int r = 0; r < g.rows; ++r) {
      if (r % 2 == 0)
        for (int c = 1; c < g.cols; ++c) order.push_back(r * g.cols + c);
      else
        for (int c = g.cols - 1; c >= 1; --c) order.push_back(r * g.cols + c);
    }
    for (int r = g.rows - 1; r >= 0; --r) order.push_back(r * g.cols);
  } else {
    for (int i = 0; i < g.rows * g.cols; ++i) order.push_back(i);
  }
  ring::RingBuildResult out;
  out.geometry = ring::realize(ring::Tour(std::move(order), &fp), fp);
  out.mip_status = milp::MipStatus::kNoSolution;  // no solver ran
  return out;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Least-squares slope of log y on log n — the empirical k of O(n^k).
/// Returns NaN with fewer than two usable (positive) points.
double fit_exponent(const std::vector<std::pair<double, double>>& pts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int m = 0;
  for (const auto& [n, y] : pts) {
    if (n <= 0.0 || y <= 0.0) continue;
    const double x = std::log(n), ly = std::log(y);
    sx += x;
    sy += ly;
    sxx += x * x;
    sxy += x * ly;
    ++m;
  }
  if (m < 2) return std::nan("");
  const double denom = m * sxx - sx * sx;
  if (denom == 0.0) return std::nan("");
  return (m * sxy - sx * sy) / denom;
}

std::string fmt_exponent(double k) {
  if (std::isnan(k)) return "-";
  return "n^" + report::num(k, 2);
}

/// One Step-1 MILP solve (sparse LU kernel) with the lp/milp counters read
/// back from a fresh registry. Returns false on a non-optimal/feasible stop.
struct RingRun {
  ring::RingBuildResult result;
  double seconds = 0.0;  ///< conflict-table build plus build_ring
  double pivots = 0.0;
  double refactorizations = 0.0;
  double warm_pivots = 0.0;
  double cuts = 0.0;
  double peak_rss_bytes = 0.0;
  double rss_growth_bytes = 0.0;
  std::size_t events = 0;  ///< records written to the events file
};

/// `lns_budget > 0` runs the budgeted LNS instead of the exact solve.
/// `events_file`, when given, receives the solver telemetry of this run as
/// JSON lines.
RingRun run_ring_milp(int n, double time_limit, double lns_budget = 0.0,
                      const char* events_file = nullptr) {
  obs::Context ctx;
  const obs::ScopedContext scope(ctx);
  obs::EventLog* events =
      events_file != nullptr ? &ctx.make_event_log() : nullptr;
  obs::PhaseSampler sampler(&ctx.registry());
  sampler.start();
  ring::RingBuildOptions opt;
  opt.use_milp = true;
  // The table's subject is the separated formulation: the root LP keeps
  // only the 2n degree rows (+1 symmetry row); Eq. 2 and Eq. 3 arrive as
  // cutting planes / lazy rows exactly where they bind.
  opt.conflict_mode = ring::ConflictMode::kSeparated;
  // The Or-opt polish lets the warm start reach the root bound on the grid
  // layouts, which is what keeps the large exact solves single-node.
  opt.or_opt_polish = true;
  opt.time_limit_seconds = time_limit;
  opt.lns_budget_seconds = lns_budget;
  RingRun out;
  const netlist::Floorplan fp = ring_floorplan(n);
  // The clock covers all of Step 1: the conflict table (built on the pool)
  // as well as the search. RingBuildResult::seconds starts after the table.
  const auto start = std::chrono::steady_clock::now();
  const ring::ConflictOracle oracle(fp);
  out.result = ring::build_ring(fp, oracle, opt);
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  sampler.stop();
  if (events != nullptr) {
    events->write(events_file);
    out.events = events->size();
  }
  const auto flat = ctx.registry().flatten();
  auto get = [&](const char* key) {
    const auto it = flat.find(key);
    return it == flat.end() ? 0.0 : it->second;
  };
  out.pivots = get("lp.pivots");
  out.refactorizations = get("lp.refactorizations");
  out.warm_pivots = get("milp.warm_pivots");
  out.cuts = get("milp.cuts_added");
  for (const auto& [name, pts] : ctx.registry().series()) {
    if (name != "mem.rss_bytes" || pts.empty()) continue;
    double first = pts.front().value;
    for (const auto& p : pts) out.peak_rss_bytes = std::max(out.peak_rss_bytes, p.value);
    out.rss_growth_bytes = std::max(0.0, out.peak_rss_bytes - first);
  }
  return out;
}

void report_events(const RingRun& run, const char* path) {
  if (path == nullptr) return;
  std::printf("events: %s (%zu records)\n", path, run.events);
}

/// CI smoke mode (`--ring N`): a single ring-construction MILP must reach a
/// solver-certified optimum inside the caller's timeout. Exercises the
/// sparse LU simplex at a size an explicit m*m basis inverse could not
/// touch.
int ring_smoke(int n, const char* events_file) {
  const RingRun run = run_ring_milp(n, 300.0, 0.0, events_file);
  std::printf("ring-construction MILP n=%d: status=%s nodes=%ld pivots=%.0f "
              "refactorizations=%.0f cuts=%.0f gap=%.4f%% length=%.0fum "
              "in %.2fs\n",
              n, milp::to_string(run.result.mip_status).c_str(),
              run.result.bnb_nodes, run.pivots, run.refactorizations,
              run.cuts, run.result.certified_gap * 100.0,
              static_cast<double>(run.result.geometry.tour.total_length()),
              run.seconds);
  report_events(run, events_file);
  return run.result.mip_status == milp::MipStatus::kOptimal ? EXIT_SUCCESS
                                                            : EXIT_FAILURE;
}

/// CI smoke mode (`--ring-budgeted N`): one budgeted-LNS ring build under a
/// hard 300 s budget. Gates on a finite certified gap of at most 5% — the
/// budgeted mode's contract at sizes where the exact solve is off the table.
int ring_smoke_budgeted(int n, const char* events_file) {
  const RingRun run = run_ring_milp(n, 300.0, 300.0, events_file);
  const double gap = run.result.certified_gap;
  std::printf("ring-construction LNS n=%d: status=%s repairs=%d gap=%.4f%% "
              "lower_bound=%.0fum length=%.0fum budget_exhausted=%d in %.2fs\n",
              n, milp::to_string(run.result.mip_status).c_str(),
              run.result.lns_repairs, gap * 100.0,
              static_cast<double>(run.result.lower_bound_um),
              static_cast<double>(run.result.geometry.tour.total_length()),
              run.result.lns_budget_exhausted ? 1 : 0, run.seconds);
  report_events(run, events_file);
  const bool ok = run.result.mip_status == milp::MipStatus::kFeasible &&
                  std::isfinite(gap) && gap <= 0.05;
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

/// Ring-construction MILP scaling table: n = 32..256 (capped by
/// `max_ring`), solved at pool 1 and at the full pool. Every time includes
/// the conflict-table build. The table (dense at n <= 128) and the
/// all-starts heuristic run on the pool and the MILP search is serial, so
/// the speedup column measures the pooled share of Step 1; the two runs
/// must agree exactly on the tour, the solver's status, nodes and pivots,
/// and the certified bound. An explicit basis inverse would be O(m^2)
/// memory — ~560 MB at n=128 — so the sparse LU basis is what makes the
/// table possible; the
/// separated formulation (root LP = degree rows only, Eq. 2/3 as cuts) is
/// what carries it past n=128.
bool ring_scaling_table(int jobs_n, int max_ring) {
  std::printf("=== Step-1 ring-construction MILP (sparse LU kernel) ===\n\n");
  std::string tn_header = "T";
  tn_header += std::to_string(jobs_n);
  tn_header += " (s)";
  report::Table t({"nodes", "LP rows", "LP cols", "status", "pivots", "cuts",
                   "gap", "T1 (s)", tn_header, "speedup", "peakRSS (MiB)"});
  bool identical = true;
  std::vector<std::pair<double, double>> time_pts, mem_pts;
  for (const int n : {32, 64, 96, 128, 192, 256}) {
    if (n > max_ring) continue;
    par::set_jobs(1);
    const RingRun serial = run_ring_milp(n, 300.0);
    par::set_jobs(jobs_n);
    const RingRun parallel = run_ring_milp(n, 300.0);
    par::set_jobs(0);
    if (serial.result.geometry.tour.order() !=
            parallel.result.geometry.tour.order() ||
        serial.result.mip_status != parallel.result.mip_status ||
        serial.result.bnb_nodes != parallel.result.bnb_nodes ||
        serial.pivots != parallel.pivots ||
        serial.result.lower_bound_um != parallel.result.lower_bound_um ||
        serial.result.certified_gap != parallel.result.certified_gap) {
      std::fprintf(stderr,
                   "determinism violation at %d nodes: jobs=1 and jobs=%d "
                   "disagree on the ring-construction solve\n", n, jobs_n);
      identical = false;
    }
    // Root relaxation of the separated formulation: 2n degree rows plus the
    // orientation (symmetry) row over n(n-1) edge binaries. Eq. 2 / Eq. 3
    // rows arrive as cutting planes and lazy rows on top (the `cuts`
    // column and the lazy counters track how many actually bound).
    const int rows = 2 * n + 1;
    const int cols = n * (n - 1);
    const double speedup =
        parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
    t.add_row({std::to_string(n), std::to_string(rows), std::to_string(cols),
               milp::to_string(parallel.result.mip_status),
               report::num(parallel.pivots, 0),
               report::num(parallel.cuts, 0),
               report::num(parallel.result.certified_gap * 100.0, 2) + "%",
               report::num(serial.seconds, 2),
               report::num(parallel.seconds, 2),
               report::num(speedup, 2) + "x",
               report::num(parallel.peak_rss_bytes / kMiB, 1)});
    // Sub-10ms solves are timer noise; sub-MiB growth is allocator reuse.
    if (serial.seconds >= 0.01) time_pts.emplace_back(n, serial.seconds);
    if (parallel.rss_growth_bytes >= kMiB)
      mem_pts.emplace_back(n, parallel.rss_growth_bytes);
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("fitted: milp time ~ O(%s), milp RSS growth ~ O(%s)\n",
              fmt_exponent(fit_exponent(time_pts)).c_str(),
              fmt_exponent(fit_exponent(mem_pts)).c_str());
  std::printf("ring determinism gate (jobs 1/%d: tour, status, nodes, "
              "pivots, bound): %s\n\n",
              jobs_n, identical ? "identical" : "VIOLATION");
  return identical;
}

/// Budgeted-LNS ring table (`--budget-ring N` enables rows up to N): sizes
/// past the exact solver's reach, each built three times at jobs = 1/2/8
/// with a fixed seed. Whenever no run exhausts its wall-clock budget the
/// repair schedule is a pure function of the seed, so all three must agree
/// bit-for-bit on the tour — the budgeted mode's determinism gate.
bool ring_budgeted_table(int budget_ring) {
  if (budget_ring <= 0) return true;
  std::printf("=== Step-1 budgeted LNS (exact MILP window repairs) ===\n\n");
  report::Table t({"nodes", "length (mm)", "gap", "repairs", "T (s)",
                   "budget hit"});
  bool identical = true;
  for (const int n : {384, 512}) {
    if (n > budget_ring) continue;
    std::vector<RingRun> runs;
    bool exhausted = false;
    for (const int jobs : {1, 2, 8}) {
      par::set_jobs(jobs);
      runs.push_back(run_ring_milp(n, 300.0, 300.0));
      exhausted = exhausted || runs.back().result.lns_budget_exhausted;
    }
    par::set_jobs(0);
    if (exhausted) {
      std::fprintf(stderr,
                   "budgeted LNS at %d nodes: budget exhausted, jobs gate "
                   "skipped (schedule incomplete => machine-dependent)\n", n);
    } else {
      for (std::size_t i = 1; i < runs.size(); ++i) {
        if (runs[i].result.geometry.tour.total_length() !=
                runs[0].result.geometry.tour.total_length() ||
            runs[i].result.lns_repairs != runs[0].result.lns_repairs) {
          std::fprintf(stderr,
                       "determinism violation at %d nodes: budgeted LNS "
                       "disagrees across jobs counts\n", n);
          identical = false;
        }
      }
    }
    const RingRun& r = runs.back();
    t.add_row({std::to_string(n),
               report::num(static_cast<double>(
                               r.result.geometry.tour.total_length()) / 1000.0,
                           1),
               report::num(r.result.certified_gap * 100.0, 2) + "%",
               std::to_string(r.result.lns_repairs),
               report::num(r.seconds, 2),
               r.result.lns_budget_exhausted ? "yes" : "no"});
  }
  std::printf("%s\n", t.to_string().c_str());
  return identical;
}

/// One Step 2-4 + evaluation run (fixed serpentine ring, PDN on) at size n.
/// When `profiled`, the run records into a fresh local registry with a
/// PhaseSampler attached and reads back per-stage wall time and sampled
/// RSS; otherwise it runs with tracing off and only the quality metrics are
/// kept (the reference half of the profiling-invariance gate).
struct StageCost {
  double seconds = 0.0;
  double peak_rss_bytes = 0.0;
  double rss_growth_bytes = 0.0;
  bool sampled = false;
};

struct ProfileRun {
  int signals = 0;
  double total_seconds = 0.0;
  double peak_rss_bytes = 0.0;
  double base_rss_bytes = 0.0;
  std::map<std::string, StageCost> stages;
  // Quality metrics for the invariance gate.
  double il_star_worst_db = 0.0;
  double total_power_w = 0.0;
  int noisy_signals = 0;
  int wavelengths = 0;
};

constexpr const char* kProfileStages[] = {"shortcuts", "sweep_cache",
                                          "mapping", "opening", "pdn",
                                          "evaluate"};

ProfileRun run_profile(int n, bool profiled) {
  // RSS before anything is built: total growth charges the ring geometry
  // too, which no span covers. (The Θ(n⁴)-bit conflict oracle is lazy and
  // never built on this path — run_with_ring needs no Step-1 search.)
  const double base_rss = static_cast<double>(obs::memprof::rss_bytes());
  // Named floorplan: Synthesizer keeps a pointer to it, so a temporary here
  // would dangle for the whole run.
  const netlist::Floorplan fp = ring_floorplan(n);
  const ring::RingBuildResult ring = serpentine_ring(fp, grid_shape(n));
  Synthesizer synth(fp);
  SynthesisOptions opt;
  ProfileRun out;
  if (!profiled) {
    const SweepCache cache = synth.make_sweep_cache(opt, ring);
    const SynthesisResult r = synth.run_with_ring(opt, ring, &cache);
    out.signals = static_cast<int>(r.design.traffic.size());
    out.total_seconds = r.seconds;
    out.il_star_worst_db = r.metrics.il_star_worst_db;
    out.total_power_w = r.metrics.total_power_w;
    out.noisy_signals = r.metrics.noisy_signals;
    out.wavelengths = r.metrics.wavelengths;
    return out;
  }
  obs::Context ctx;
  const obs::ScopedContext scope(ctx);
  obs::Registry& reg = ctx.registry();
  obs::PhaseSampler sampler(&reg, 1000);
  sampler.start();
  const SweepCache cache = synth.make_sweep_cache(opt, ring);
  const SynthesisResult r = synth.run_with_ring(opt, ring, &cache);
  sampler.stop();

  out.signals = static_cast<int>(r.design.traffic.size());
  out.total_seconds = r.seconds;
  out.il_star_worst_db = r.metrics.il_star_worst_db;
  out.total_power_w = r.metrics.total_power_w;
  out.noisy_signals = r.metrics.noisy_signals;
  out.wavelengths = r.metrics.wavelengths;

  const auto flat = reg.flatten();
  const auto rss = obs::rss_by_span(reg);
  for (const char* stage : kProfileStages) {
    StageCost cost;
    const auto it = flat.find(std::string("span.") + stage + ".total_s");
    if (it != flat.end()) cost.seconds = it->second;
    const auto rit = rss.find(stage);
    if (rit != rss.end()) {
      cost.sampled = true;
      cost.peak_rss_bytes = rit->second.peak_bytes;
      cost.rss_growth_bytes =
          std::max(0.0, rit->second.peak_bytes - rit->second.start_bytes);
    }
    out.stages[stage] = cost;
  }
  for (const auto& [name, pts] : reg.series()) {
    if (name != "mem.rss_bytes") continue;
    for (const auto& p : pts)
      out.peak_rss_bytes = std::max(out.peak_rss_bytes, p.value);
  }
  out.base_rss_bytes = base_rss;
  return out;
}

/// Per-stage resource profile through n=1024 (or --max-n): one synthesis per
/// size, wall time + sampled peak RSS per pipeline stage, then the log-log
/// fitted O(n^k) per stage. Sizes <= 64 also run unprofiled and must
/// reproduce the same design exactly — profiling may not perturb results.
bool profile_table(int max_n) {
  std::printf("=== Per-stage resource profile (Steps 2-4 + evaluation on a "
              "fixed serpentine ring, PDN on) ===\n\n");
  report::Table t({"nodes", "signals", "sc (s)", "cache (s)", "map (s)",
                   "open (s)", "pdn (s)", "eval (s)", "total (s)",
                   "peakRSS (MiB)"});
  report::Table m({"nodes", "sc (MiB)", "cache (MiB)", "map (MiB)",
                   "open (MiB)", "pdn (MiB)", "eval (MiB)"});
  std::map<std::string, std::vector<std::pair<double, double>>> time_pts,
      mem_pts;
  std::vector<std::pair<double, double>> total_time_pts, total_mem_pts;
  bool identical = true;
  for (const int n : {16, 32, 64, 96, 128, 192, 256, 384, 512, 768, 1024}) {
    if (n > max_n) continue;
    const ProfileRun run = run_profile(n, /*profiled=*/true);
    if (n <= 64) {
      const ProfileRun ref = run_profile(n, /*profiled=*/false);
      if (run.il_star_worst_db != ref.il_star_worst_db ||
          run.total_power_w != ref.total_power_w ||
          run.noisy_signals != ref.noisy_signals ||
          run.wavelengths != ref.wavelengths) {
        std::fprintf(stderr,
                     "profiling-invariance violation at %d nodes: profiled "
                     "and unprofiled syntheses disagree on quality metrics\n",
                     n);
        identical = false;
      }
    }
    std::vector<std::string> trow = {std::to_string(n),
                                     std::to_string(run.signals)};
    std::vector<std::string> mrow = {std::to_string(n)};
    for (const char* stage : kProfileStages) {
      const StageCost& c = run.stages.at(stage);
      trow.push_back(report::num(c.seconds, 3));
      mrow.push_back(c.sampled ? report::num(c.peak_rss_bytes / kMiB, 1) : "-");
      // Skip noise-floor points: sub-10ms stages are timer jitter and
      // sub-MiB RSS growth is allocator reuse, not asymptotic demand.
      if (c.seconds >= 0.01) time_pts[stage].emplace_back(n, c.seconds);
      if (c.sampled && c.rss_growth_bytes >= kMiB)
        mem_pts[stage].emplace_back(n, c.rss_growth_bytes);
    }
    trow.push_back(report::num(run.total_seconds, 3));
    trow.push_back(report::num(run.peak_rss_bytes / kMiB, 1));
    t.add_row(trow);
    m.add_row(mrow);
    if (run.total_seconds >= 0.01)
      total_time_pts.emplace_back(n, run.total_seconds);
    const double growth = run.peak_rss_bytes - run.base_rss_bytes;
    if (growth >= kMiB) total_mem_pts.emplace_back(n, growth);
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("per-stage sampled peak RSS (\"-\" = stage shorter than the "
              "1ms sample period):\n%s\n", m.to_string().c_str());
  std::printf("fitted O(n^k), log-log least squares (stages above the "
              "noise floor only):\n");
  for (const char* stage : kProfileStages) {
    std::printf("  %-18s time ~ O(%s)  RSS growth ~ O(%s)\n", stage,
                fmt_exponent(fit_exponent(time_pts[stage])).c_str(),
                fmt_exponent(fit_exponent(mem_pts[stage])).c_str());
  }
  std::printf("  %-18s time ~ O(%s)  RSS growth ~ O(%s)\n", "total",
              fmt_exponent(fit_exponent(total_time_pts)).c_str(),
              fmt_exponent(fit_exponent(total_mem_pts)).c_str());
  std::printf("(RSS attribution is first-touch: a stage that reuses memory\n"
              " a predecessor faulted in shows no growth of its own)\n\n");
  return identical;
}

/// Exact-equality determinism gate over Step 3: the full mapping + opening
/// phase at 1, 2, and 8 pool jobs must produce byte-identical routes,
/// waveguide signal lists, openings, opening statistics, and probe counters
/// (`mapping.fits_probes`, `mapping.fits_summary_hits`,
/// `mapping.reloc_attempts`, which the bench gate compares exactly). Each
/// run drives both phases on one OccupancyIndex, as the synthesizer does.
bool mapping_determinism_gate() {
  bool identical = true;
  for (const int n : {48, 96}) {
    const netlist::Floorplan fp = ring_floorplan(n);
    const ring::RingBuildResult ring = serpentine_ring(fp, grid_shape(n));
    const netlist::Traffic traffic =
        netlist::Traffic::all_to_all(fp.nodes().size());
    const mapping::ArcTable arcs(ring.geometry.tour, traffic);
    mapping::MappingOptions mo;
    mo.max_wavelengths = n / 4;  // tight cap: relocations engage
    const shortcut::ShortcutPlan plan;

    struct Outcome {
      mapping::Mapping m;
      mapping::OpeningStats stats;
      std::map<std::string, long long> counters;
    };
    const auto run = [&](int jobs) {
      par::set_jobs(jobs);
      Outcome out;
      obs::Context ctx;
      {
        obs::ScopedContext scope(ctx);
        mapping::OccupancyIndex index(arcs, out.m, mo.max_wavelengths);
        mapping::assign_wavelengths(ring.geometry.tour, traffic, plan, index);
        out.stats = mapping::create_openings(ring.geometry.tour, index);
      }
      out.counters = ctx.registry().counters();
      par::set_jobs(0);
      return out;
    };
    const Outcome ref = run(1);
    for (const int jobs : {2, 8}) {
      const Outcome got = run(jobs);
      bool same = got.stats.relocated_signals == ref.stats.relocated_signals &&
                  got.stats.extra_waveguides == ref.stats.extra_waveguides &&
                  got.m.wavelengths_used == ref.m.wavelengths_used &&
                  got.m.waveguides.size() == ref.m.waveguides.size();
      for (const char* key : {"mapping.fits_probes",
                              "mapping.fits_summary_hits",
                              "mapping.reloc_attempts"}) {
        same = same && got.counters.at(key) == ref.counters.at(key);
      }
      for (std::size_t i = 0; same && i < ref.m.routes.size(); ++i) {
        same = got.m.routes[i].waveguide == ref.m.routes[i].waveguide &&
               got.m.routes[i].wavelength == ref.m.routes[i].wavelength;
      }
      for (std::size_t w = 0; same && w < ref.m.waveguides.size(); ++w) {
        same = got.m.waveguides[w].opening == ref.m.waveguides[w].opening &&
               got.m.waveguides[w].signals == ref.m.waveguides[w].signals;
      }
      if (!same) {
        std::fprintf(stderr,
                     "mapping determinism violation at %d nodes: jobs=1 and "
                     "jobs=%d disagree on the mapping/opening search\n",
                     n, jobs);
        identical = false;
      }
    }
  }
  std::printf("mapping/opening determinism gate (jobs 1/2/8): %s\n\n",
              identical ? "identical" : "VIOLATION");
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xring;
  int max_ring = 128;  // cap for the MILP table (CI trims the 100s solves)
  int max_n = 1024;    // cap for the resource profile
  int budget_ring = 0;  // budgeted LNS table off by default (300s per size)
  int smoke_exact = 0, smoke_budgeted = 0;
  const char* events_file = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--ring") == 0) smoke_exact = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--ring-budgeted") == 0) {
      smoke_budgeted = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--events") == 0) events_file = argv[i + 1];
    if (std::strcmp(argv[i], "--max-ring") == 0) max_ring = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--budget-ring") == 0) {
      budget_ring = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--max-n") == 0) {
      max_n = std::atoi(argv[i + 1]);
      // --max-ring 0 legitimately skips the MILP table, but a non-positive
      // profile cap would silently run zero sizes and fit nothing.
      if (max_n <= 0) {
        std::fprintf(stderr,
                     "scaling: --max-n must be positive (got %s)\n"
                     "usage: scaling [--ring N] [--ring-budgeted N] "
                     "[--events FILE] [--max-ring N] [--budget-ring N] "
                     "[--max-n N]\n"
                     "  --ring N           CI smoke: one exact MILP ring solve at N\n"
                     "  --ring-budgeted N  CI smoke: one budgeted LNS build at N\n"
                     "                     (hard 300 s, certified gap <= 5%% gated)\n"
                     "  --events FILE      write the smoke run's telemetry JSONL\n"
                     "  --max-ring N       cap the MILP ring table (0 skips it)\n"
                     "  --budget-ring N    budgeted LNS table rows up to N\n"
                     "                     (default 0 = skipped)\n"
                     "  --max-n N          cap the resource profile "
                     "(default 1024)\n",
                     argv[i + 1]);
        return EXIT_FAILURE;
      }
    }
  }
  if (smoke_exact > 0) return ring_smoke(smoke_exact, events_file);
  if (smoke_budgeted > 0) return ring_smoke_budgeted(smoke_budgeted, events_file);
  const int jobs_n = par::resolve_jobs(0);

  bool ok = ring_scaling_table(jobs_n, max_ring);
  ok = ring_budgeted_table(budget_ring) && ok;
  ok = mapping_determinism_gate() && ok;
  ok = profile_table(max_n) && ok;
  if (!ok) return EXIT_FAILURE;
  std::printf("=== Scaling: full flow up to 64 nodes (jobs=1 vs jobs=%d) ===\n\n",
              jobs_n);

  std::string tn_header = "T";
  tn_header += std::to_string(jobs_n);
  tn_header += " (s)";
  report::Table t({"nodes", "signals", "ring (mm)", "wgs", "#wl", "il*_w",
                   "P (W)", "#s", "T1 (s)", tn_header, "speedup"});
  bool identical = true;
  for (const int n : {8, 16, 32, 48, 64}) {
    netlist::Floorplan fp =
        n == 8    ? netlist::Floorplan::grid(2, 4, 2000)
        : n == 16 ? netlist::Floorplan::grid(4, 4, 2000)
        : n == 32 ? netlist::Floorplan::grid(4, 8, 2000)
        : n == 48 ? netlist::Floorplan::grid(6, 8, 2000)
                  : netlist::Floorplan::grid(8, 8, 2000);
    Synthesizer synth(fp);
    SynthesisOptions opt;
    // The MILP's quadratic variable count makes 48+ nodes expensive for the
    // bundled solver; the conflict-aware heuristic plus 2-opt is certified
    // optimal on grids of the paper's sizes, so it carries the large end.
    opt.ring.use_milp = n <= 32;
    // A handful of #wl settings around the all-to-all requirement: enough
    // parallel work for the sweep fan-out to show, small enough that 64
    // nodes stays benchable.
    const int max_wl = n;
    const int min_wl = std::max(2, n - 3);

    par::set_jobs(1);
    const SweepResult serial =
        sweep_xring(synth, opt, SweepGoal::kMinPower, min_wl, max_wl);
    par::set_jobs(jobs_n);
    const SweepResult parallel =
        sweep_xring(synth, opt, SweepGoal::kMinPower, min_wl, max_wl);
    par::set_jobs(0);

    // Determinism gate: exact equality, not tolerance — the parallel sweep
    // must replay the serial reduction bit for bit.
    if (serial.best_wl != parallel.best_wl ||
        serial.result.metrics.il_star_worst_db !=
            parallel.result.metrics.il_star_worst_db ||
        serial.result.metrics.total_power_w !=
            parallel.result.metrics.total_power_w ||
        serial.result.metrics.noisy_signals !=
            parallel.result.metrics.noisy_signals) {
      std::fprintf(stderr,
                   "determinism violation at %d nodes: jobs=1 and jobs=%d "
                   "disagree\n", n, jobs_n);
      identical = false;
    }

    const SynthesisResult& r = parallel.result;
    const double speedup =
        parallel.wall_seconds > 0.0 ? serial.wall_seconds / parallel.wall_seconds
                                    : 0.0;
    t.add_row({std::to_string(n), std::to_string(r.design.traffic.size()),
               report::num(r.design.ring.tour.total_length() / 1000.0, 1),
               std::to_string(r.metrics.waveguides),
               std::to_string(r.metrics.wavelengths),
               report::num(r.metrics.il_star_worst_db, 2),
               report::num(r.metrics.total_power_w, 2),
               std::to_string(r.metrics.noisy_signals),
               report::num(serial.wall_seconds, 2),
               report::num(parallel.wall_seconds, 2),
               report::num(speedup, 2) + "x"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("(#s stays 0 at every size: the crossing-free construction is\n"
              " structural, not a small-network artifact; jobs=1 and jobs=%d\n"
              " produce identical designs — the speedup column is free)\n",
              jobs_n);
  return identical ? EXIT_SUCCESS : EXIT_FAILURE;
}
