// Google-benchmark microbenchmarks of the substrates: LP/MILP solver,
// conflict oracle, ring construction, wavelength assignment, and the full
// synthesis flow. These back the paper's computational-efficiency claim
// (Table T columns: full 16-node synthesis well under a second).
//
// Besides the console table, results are exported machine-readably to
// BENCH_micro.json (override with --bench_report=FILE, disable with
// --bench_report=) through the obs metrics exporter, so successive runs
// form a perf trajectory that tooling can diff. No obs::Context is
// installed, so tracing stays off during the timed loops — the file records
// the benchmark results themselves, not pipeline telemetry.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "baseline/ornoc.hpp"
#include "mapping/occupancy.hpp"
#include "mapping/opening.hpp"
#include "geom/offset.hpp"
#include "geom/sweep.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/export.hpp"
#include "par/pool.hpp"
#include "ring/tsp_model.hpp"
#include "shortcut/shortcut.hpp"
#include "sim/simulator.hpp"
#include "xring/synthesizer.hpp"

namespace {

using namespace xring;

void BM_LpAssignmentRelaxation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lp::Problem p;
  std::vector<std::vector<int>> var(n, std::vector<int>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      var[i][j] = p.add_variable(0, 1, std::abs(i - j) + 1);
    }
  }
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<int, double>> row, col;
    for (int j = 0; j < n; ++j) {
      row.emplace_back(var[i][j], 1.0);
      col.emplace_back(var[j][i], 1.0);
    }
    p.add_constraint(row, lp::Sense::kEq, 1.0);
    p.add_constraint(col, lp::Sense::kEq, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p));
  }
}
BENCHMARK(BM_LpAssignmentRelaxation)->Arg(8)->Arg(16)->Arg(24);

/// The dense conflict-table build: the paper's 8/16/32-node rings, then
/// 8-row grids at n = 64/96/128 (up to kDenseNodeLimit).
void BM_ConflictOracle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = n <= 32 ? netlist::Floorplan::standard(n)
                          : netlist::Floorplan::grid(8, n / 8, 2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring::ConflictOracle(fp));
  }
}
BENCHMARK(BM_ConflictOracle)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(96)->Arg(128)
    ->Unit(benchmark::kMillisecond);

/// An 8-row grid of n nodes at 2 mm pitch, each moved by up to ±300 µm
/// per axis by a fixed LCG: irregular enough that Step 1 has a real search.
netlist::Floorplan jittered_grid(int n) {
  const int rows = 8, cols = n / 8;
  unsigned state = 0x9E3779B9u + static_cast<unsigned>(n);
  const auto jitter = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<geom::Coord>((state >> 8) % 601) - 300;
  };
  std::vector<netlist::Node> nodes;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      nodes.push_back({r * cols + c,
                       {2000 + 2000 * c + jitter(), 2000 + 2000 * r + jitter()},
                       ""});
    }
  }
  return netlist::Floorplan(std::move(nodes), 2000 * (cols + 2),
                            2000 * (rows + 2));
}

/// Step 1 with its conflict table prebuilt: the paper's 8/16/32-node rings,
/// then jittered 8 x 8 and 8 x 12 grids (n = 64/96).
void BM_RingConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp =
      n <= 32 ? netlist::Floorplan::standard(n) : jittered_grid(n);
  const ring::ConflictOracle oracle(fp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring::build_ring(fp, oracle, {}));
  }
}
BENCHMARK(BM_RingConstruction)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(96)
    ->Unit(benchmark::kMillisecond);

/// A cold solve of the root relaxation Step 1 starts its search from on the
/// same floorplans: the kLazy TspModel plus the symmetry row oriented by the
/// heuristic tour. The `pivots` counter gives the time per pivot.
void BM_RingRootLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp =
      n <= 32 ? netlist::Floorplan::standard(n) : jittered_grid(n);
  const ring::ConflictOracle oracle(fp);
  ring::TspModel tsp(fp, oracle, ring::ConflictMode::kLazy);
  tsp.add_symmetry_breaking(ring::heuristic_tour(fp, oracle));
  const milp::Model& model = tsp.model();
  lp::Problem p;
  p.set_maximize(model.maximize());
  for (int v = 0; v < model.num_variables(); ++v) {
    p.add_variable(model.lower(v), model.upper(v), model.objective(v));
  }
  for (const milp::Constraint& c : model.constraints()) {
    p.add_constraint(c.terms, c.sense, c.rhs);
  }
  int pivots = 0;
  for (auto _ : state) {
    const lp::Solution sol = lp::solve(p);
    pivots = sol.iterations;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["pivots"] = pivots;
}
BENCHMARK(BM_RingRootLp)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(96)
    ->Unit(benchmark::kMillisecond);

/// The all-starts heuristic: the paper's 8/16/32-node rings, then jittered
/// 8 x 8 and 8 x 12 grids (the sizes of bench/perf's sweep64 and single96).
void BM_HeuristicTour(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp =
      n <= 32 ? netlist::Floorplan::standard(n) : jittered_grid(n);
  const ring::ConflictOracle oracle(fp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring::heuristic_tour(fp, oracle));
  }
}
BENCHMARK(BM_HeuristicTour)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(96)
    ->Unit(benchmark::kMillisecond);

void BM_WavelengthAssignment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const auto traffic = netlist::Traffic::all_to_all(n);
  const auto ring = ring::build_ring(fp).geometry;
  const auto plan = shortcut::build_shortcuts(ring, fp);
  mapping::MappingOptions mo;
  mo.max_wavelengths = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapping::assign_wavelengths(ring.tour, traffic, plan, mo));
  }
}
BENCHMARK(BM_WavelengthAssignment)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// The sweep-amortized Step-3 first half: assignment over a prebuilt shared
/// ArcTable, i.e. what each #wl setting pays once the SweepCache exists.
void BM_MappingAssign(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const auto traffic = netlist::Traffic::all_to_all(n);
  const auto ring = ring::build_ring(fp).geometry;
  const auto plan = shortcut::build_shortcuts(ring, fp);
  const mapping::ArcTable arcs(ring.tour, traffic);
  mapping::MappingOptions mo;
  mo.max_wavelengths = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapping::assign_wavelengths(ring.tour, traffic, plan, mo, &arcs));
  }
}
BENCHMARK(BM_MappingAssign)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// Step-3 second half: opening insertion with relocation, on the occupancy
/// index with a shared ArcTable. The base mapping is assigned once; each
/// iteration re-opens a fresh copy (the copy is outside the timed region).
void BM_CreateOpenings(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const auto traffic = netlist::Traffic::all_to_all(n);
  const auto ring = ring::build_ring(fp).geometry;
  const auto plan = shortcut::build_shortcuts(ring, fp);
  const mapping::ArcTable arcs(ring.tour, traffic);
  mapping::MappingOptions mo;
  mo.max_wavelengths = n;
  const mapping::Mapping base =
      mapping::assign_wavelengths(ring.tour, traffic, plan, mo, &arcs);
  for (auto _ : state) {
    state.PauseTiming();
    mapping::Mapping m = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        mapping::create_openings(ring.tour, traffic, m, mo, {}, &arcs));
  }
}
BENCHMARK(BM_CreateOpenings)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_FullXRingSynthesis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth.run(opt));
  }
}
BENCHMARK(BM_FullXRingSynthesis)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_OrnocBaseline(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const auto ring = ring::build_ring(fp);
  baseline::OrnocOptions opt;
  opt.max_wavelengths = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::synthesize_ornoc(fp, ring, opt));
  }
}
BENCHMARK(BM_OrnocBaseline)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_Evaluate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  const SynthesisResult r = synth.run(opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::evaluate(r.design));
  }
}
BENCHMARK(BM_Evaluate)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// compute_noise alone on an XRing design with losses and laser powers held
/// fixed. XRing's tree PDN, residue filter and crossing-free ring leave no
/// ring noise to walk, so this times the shortcut-crossing and CSE emitters;
/// BM_OrnocCrosstalk times the ring walk.
void BM_CrosstalkAnalysis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  const SynthesisResult r = synth.run(opt);
  const analysis::AnalysisContext ctx(r.design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::compute_noise(ctx, r.metrics.signals, r.metrics.laser_mw));
  }
}
BENCHMARK(BM_CrosstalkAnalysis)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// compute_noise alone on ORNoC's comb-PDN design at #wl = n: every crossing
/// tap walks all of the laser's wavelengths around the crossed waveguide —
/// the ring noise walk that dominates the paper's Tables II-III.
void BM_OrnocCrosstalk(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  baseline::OrnocOptions opt;
  opt.max_wavelengths = n;
  const SynthesisResult r =
      baseline::synthesize_ornoc(fp, ring::build_ring(fp), opt);
  const analysis::AnalysisContext ctx(r.design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::compute_noise(ctx, r.metrics.signals, r.metrics.laser_mw));
  }
}
BENCHMARK(BM_OrnocCrosstalk)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// Crossing detection over the realized ring: SegmentIndex build plus every
/// hop queried against the full segment set (the RingSubstrate inner loop),
/// versus the all-pairs brute force at the same n for reference.
void BM_CrossingDetect(benchmark::State& state) {
  // Serpentine tour over a square grid — the same hop-route shape the
  // scaling harness feeds RingSubstrate, available at any n.
  const int side = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::grid(side, side, 2000);
  std::vector<netlist::NodeId> order;
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      order.push_back(r * side + (r % 2 == 0 ? c : side - 1 - c));
    }
  }
  std::vector<geom::LRoute> hops;
  const int n = static_cast<int>(order.size());
  for (int h = 0; h < n; ++h) {
    hops.emplace_back(fp.position(order[h]), fp.position(order[(h + 1) % n]),
                      geom::LOrder::kVerticalFirst);
  }
  for (auto _ : state) {
    geom::SegmentIndex index;
    for (std::size_t h = 0; h < hops.size(); ++h) {
      index.add(hops[h], static_cast<int>(h));
    }
    index.build();
    int total = 0;
    for (const geom::LRoute& r : hops) total += index.count_crossings(r);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CrossingDetect)->Arg(4)->Arg(8)->Arg(16)->Arg(32);  // side → n = side²

void BM_Simulator(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  const SynthesisResult r = synth.run(opt);
  sim::SimOptions so;
  so.duration_us = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(r.design, r.metrics, so));
  }
}
BENCHMARK(BM_Simulator)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

/// Simplex kernels on a wide LP (few rows, many columns): the shape where
/// candidate-list pricing pays, because a full Dantzig pass is O(n·nnz)
/// per pivot while the list re-prices only its ~32 survivors.
void BM_SimplexWideLp(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  const int rows = 12;
  lp::Problem p;
  for (int j = 0; j < cols; ++j) {
    // Deterministic pseudo-random objective in [-9, 9].
    p.add_variable(0.0, 1.0, static_cast<double>((j * 37) % 19) - 9.0);
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < cols; ++j) {
      const int a = (i * 31 + j * 17) % 7 - 3;
      if (a != 0) terms.emplace_back(j, static_cast<double>(a));
    }
    p.add_constraint(terms, lp::Sense::kLe, cols / 4.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p));
  }
}
BENCHMARK(BM_SimplexWideLp)->Arg(256)->Arg(1024);

/// Chunk-claiming overhead of parallel_for via an ordered reduce over a
/// trivial body — what a fine-grained loop pays the substrate per chunk.
void BM_ParallelReduceSum(benchmark::State& state) {
  par::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const long total = par::parallel_reduce(
        pool, 0, 4096, 0L, [](long i, long& acc) { acc += i; },
        [](long& into, long& chunk) { into += chunk; }, 64);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ParallelReduceSum)->Arg(1)->Arg(2)->Arg(4);

/// Branch & bound on a cycle-cover MILP: branching, warm-started child
/// solves and incumbent pruning.
void BM_BnbCycleCover(benchmark::State& state) {
  const int n = 13;
  milp::Model m;
  std::vector<int> x;
  for (int i = 0; i < n; ++i) x.push_back(m.add_binary(1.0));
  for (int i = 0; i < n; ++i) {
    m.add_constraint({{x[i], 1.0}, {x[(i + 1) % n], 1.0}},
                     milp::Sense::kGe, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(milp::solve(m));
  }
}
BENCHMARK(BM_BnbCycleCover)->Unit(benchmark::kMillisecond);

void BM_OffsetClosedRing(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = netlist::Floorplan::standard(n);
  const auto ring = ring::build_ring(fp).geometry;
  for (auto _ : state) {
    try {
      benchmark::DoNotOptimize(geom::offset_closed(ring.polyline, 150, false));
    } catch (const std::invalid_argument&) {
    }
  }
}
BENCHMARK(BM_OffsetClosedRing)->Arg(8)->Arg(16)->Arg(32);

// ---------------------------------------------------------------------------
// Steps 2-3 kernels on the scaling harness's fixed ring.

/// A boustrophedon ring over a rows x cols grid at 2 mm pitch (serpentine
/// over columns 1.. row by row, back up column 0): the fixed ring of the
/// `bench/scaling` resource profile. n = 128 / 256 / 512 use 8x16 / 16x16 /
/// 16x32.
struct SerpentineRing {
  netlist::Floorplan floorplan;
  ring::RingGeometry ring;
};

SerpentineRing serpentine_ring(int n) {
  const int rows = n == 128 ? 8 : 16;
  const int cols = n / rows;
  SerpentineRing out{netlist::Floorplan::grid(rows, cols, 2000), {}};
  std::vector<netlist::NodeId> order;
  for (int r = 0; r < rows; ++r) {
    for (int c = 1; c < cols; ++c) {
      order.push_back(r * cols + (r % 2 == 0 ? c : cols - c));
    }
  }
  for (int r = rows - 1; r >= 0; --r) order.push_back(r * cols);
  out.ring = ring::realize(ring::Tour(std::move(order), &out.floorplan),
                           out.floorplan);
  return out;
}

/// Step 2's candidate scan: gain and ring-clearance of every node pair.
void BM_CollectCandidates(benchmark::State& state) {
  const SerpentineRing s = serpentine_ring(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shortcut::collect_candidates(s.ring, s.floorplan));
  }
}
BENCHMARK(BM_CollectCandidates)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// The per-signal arc table of all-to-all traffic (both directions' hop
/// intervals) that a #wl sweep shares.
void BM_ArcTable(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SerpentineRing s = serpentine_ring(n);
  const auto traffic = netlist::Traffic::all_to_all(n);
  for (auto _ : state) {
    const mapping::ArcTable arcs(s.ring.tour, traffic);
    benchmark::DoNotOptimize(arcs.arc(0, mapping::Direction::kCw));
  }
}
BENCHMARK(BM_ArcTable)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// The per-design device tables of an evaluation (AnalysisContext with the
/// sweep-shared ring substrate and arc table, so only the DeviceIndex is
/// built) for XRing on the serpentine ring, default #wl cap.
void BM_DeviceIndex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SerpentineRing s = serpentine_ring(n);
  ring::RingBuildResult ring;
  ring.geometry = s.ring;
  const Synthesizer synth(s.floorplan);
  const SynthesisResult r = synth.run_with_ring({}, ring);
  const analysis::RingSubstrate substrate(r.design.ring, s.floorplan);
  const mapping::ArcTable arcs(r.design.ring.tour, r.design.traffic);
  for (auto _ : state) {
    const analysis::AnalysisContext ctx(r.design, &substrate, &arcs);
    benchmark::DoNotOptimize(ctx.devices().receivers_at(0, 0));
  }
}
BENCHMARK(BM_DeviceIndex)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// Console output as usual, plus every finished run recorded as gauges
/// (`bench.<name>.real_time_ns` / `.cpu_time_ns` / `.iterations`) in a
/// registry of its own for the JSON export below. No context installs it,
/// so the benchmarked code runs untraced.
class ObsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      const std::string base = "bench." + run.benchmark_name();
      const double iters = static_cast<double>(run.iterations);
      reg_.gauge(base + ".real_time_ns")
          .set(run.real_accumulated_time / iters * 1e9);
      reg_.gauge(base + ".cpu_time_ns")
          .set(run.cpu_accumulated_time / iters * 1e9);
      reg_.gauge(base + ".iterations").set(iters);
    }
  }

  const obs::Registry& registry() const { return reg_; }

 private:
  obs::Registry reg_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string report_path = "BENCH_micro.json";
  // Peel off our own flag before google-benchmark sees the argument list.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--bench_report=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      report_path = argv[i] + std::strlen(kFlag);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ObsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!report_path.empty()) {
    obs::write_metrics_json(report_path, reporter.registry());
    std::fprintf(stderr, "benchmark report written to %s\n",
                 report_path.c_str());
  }
  return 0;
}
