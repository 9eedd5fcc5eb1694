#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baseline/oring.hpp"
#include "baseline/ornoc.hpp"
#include "crossbar/physical.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "verify/drc.hpp"
#include "xring/sweep.hpp"

namespace perf {

using namespace xring;

namespace {

constexpr geom::Coord kPitch = 2000;  // µm, the paper's core size
constexpr int kJitter = 300;          // µm, per axis
/// Relative to the repository root, where the benchmark runs.
constexpr const char* kExpectedCells = "bench/perf/expected/paper.json";

/// splitmix64: a fixed generator, so inputs do not depend on the standard
/// library's distribution algorithms.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A rows x cols grid at 2 mm pitch with every node moved by up to ±300 µm
/// per axis: irregular enough that Step 1 has a real search, regular enough
/// that a conflict-free ring always exists.
std::unique_ptr<netlist::Floorplan> jittered_grid(int rows, int cols,
                                                  std::uint64_t seed) {
  std::uint64_t state = seed;
  auto jitter = [&] {
    return static_cast<geom::Coord>(mix(state) % (2 * kJitter + 1)) - kJitter;
  };
  std::vector<netlist::Node> nodes;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      netlist::Node node;
      node.position = {kPitch + c * kPitch + jitter(),
                       kPitch + r * kPitch + jitter()};
      nodes.push_back(node);
    }
  }
  return std::make_unique<netlist::Floorplan>(
      std::move(nodes), (cols + 2) * kPitch, (rows + 2) * kPitch);
}

// ---------------------------------------------------------------------------
// Checks shared by every job.

bool finite(const analysis::RouterMetrics& m) {
  return std::isfinite(m.il_worst_db) && std::isfinite(m.il_star_worst_db) &&
         std::isfinite(m.worst_path_mm) && std::isfinite(m.total_power_w) &&
         std::isfinite(m.snr_worst_db);
}

DesignSummary summarize(const std::string& label, const SynthesisResult& r,
                        int best_wl, bool quality) {
  DesignSummary s;
  s.label = label;
  s.best_wl = best_wl;
  s.il_star_worst_db = r.metrics.il_star_worst_db;
  s.total_power_w = r.metrics.total_power_w;
  s.snr_worst_db = r.metrics.snr_worst_db;
  s.wavelengths = r.metrics.wavelengths;
  s.waveguides = r.metrics.waveguides;
  s.noisy_signals = r.metrics.noisy_signals;
  s.quality = quality;
  return s;
}

/// Records `r` and fails the job on non-finite metrics.
void add_design(JobOutput& out, const std::string& label,
                const SynthesisResult& r, int best_wl, bool quality) {
  if (!finite(r.metrics)) out.failures.push_back(label + ": non-finite metric");
  out.designs.push_back(summarize(label, r, best_wl, quality));
}

void check_ring(JobOutput& out, const ring::RingBuildResult& ring) {
  if (ring.mip_status != milp::MipStatus::kOptimal &&
      ring.mip_status != milp::MipStatus::kFeasible) {
    out.failures.push_back("step 1: " + milp::to_string(ring.mip_status));
  }
}

void check_drc(JobOutput& out, const std::string& label,
               const analysis::RouterDesign& design, int max_wavelengths) {
  verify::DrcOptions drc;
  drc.max_wavelengths = max_wavelengths;
  const std::vector<verify::Violation> violations = verify::check(design, drc);
  if (!violations.empty()) {
    out.failures.push_back(label + ": " + std::to_string(violations.size()) +
                           " DRC violations, first: " +
                           violations.front().message);
  }
}

/// Builds Step 1's conflict oracle ahead of ring construction, inside the
/// benchmark's own span: the library builds it lazily, with no span of its
/// own, on the first call that needs it.
void build_oracle(const Synthesizer& synth) {
  const obs::Span span("ring.oracle");
  synth.oracle();
}

// ---------------------------------------------------------------------------
// paper: every Table I-III cell of one paper network.

/// The expected cells, read once; the panel reads them, so a missing file
/// fails set-up.
const std::map<std::string, double>& expected_cells() {
  static const std::map<std::string, double> cells = [] {
    std::ifstream in(kExpectedCells);
    if (!in) throw std::runtime_error(std::string("cannot read ") + kExpectedCells);
    std::ostringstream text;
    text << in.rdbuf();
    return obs::metrics_from_json(text.str());
  }();
  return cells;
}

/// Stores a printed cell the way report::Table::to_metrics publishes it:
/// numeric cells only ("-" SNR cells are skipped).
void put_cell(JobOutput& out, const std::string& key, const std::string& cell) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || *end != '\0') return;
  out.cells[key] = v;
}

std::string num(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

void table1_cells(JobOutput& out, const std::string& prefix, int wavelengths,
                  double il_worst_db, double worst_path_mm,
                  int worst_crossings) {
  put_cell(out, prefix + ".#wl", std::to_string(wavelengths));
  put_cell(out, prefix + ".il_w", num(il_worst_db, 1));
  put_cell(out, prefix + ".L", num(worst_path_mm, 1));
  put_cell(out, prefix + ".C", std::to_string(worst_crossings));
}

void table23_cells(JobOutput& out, const std::string& prefix,
                   const analysis::RouterMetrics& m) {
  put_cell(out, prefix + ".#wl", std::to_string(m.wavelengths));
  put_cell(out, prefix + ".il*_w", num(m.il_star_worst_db, 2));
  put_cell(out, prefix + ".L", num(m.worst_path_mm, 1));
  put_cell(out, prefix + ".C", std::to_string(m.worst_crossings));
  put_cell(out, prefix + ".P", num(m.total_power_w, 2));
  put_cell(out, prefix + ".#s", std::to_string(m.noisy_signals));
  if (m.snr_worst_db < 1e8) put_cell(out, prefix + ".SNR_w", num(m.snr_worst_db, 1));
}

/// The baselines' library spans are all named `baseline.synth`; these name
/// the tool.
SynthesisResult run_ornoc(const netlist::Floorplan& fp,
                          const ring::RingBuildResult& ring,
                          const baseline::OrnocOptions& options) {
  const obs::Span span("baseline.ornoc");
  return baseline::synthesize_ornoc(fp, ring, options);
}

SynthesisResult run_oring(const netlist::Floorplan& fp,
                          const ring::RingBuildResult& ring,
                          const baseline::OringOptions& options) {
  const obs::Span span("baseline.oring");
  return baseline::synthesize_oring(fp, ring, options);
}

JobOutput paper_job(const Instance& in) {
  JobOutput out;
  const netlist::Floorplan& fp = *in.floorplan;
  const int n = fp.size();
  std::string tag = "n";
  tag += std::to_string(n);
  const Synthesizer synth(fp);
  build_oracle(synth);
  const ring::RingBuildResult ring = ring::build_ring(fp, synth.oracle(), {});
  check_ring(out, ring);

  // Table I (8 and 16 nodes): crossbar tools and ring routers without PDNs,
  // each ring router at the #wl minimizing worst-case loss.
  if (n <= 16) {
    const phys::Parameters params = phys::Parameters::proton_plus();
    const std::string t1 = "table1." + tag + ".";
    auto crossbar_row = [&](const char* tool, const crossbar::Topology& topo,
                            crossbar::SynthesisStyle style) {
      crossbar::CrossbarMetrics m;
      {
        const obs::Span span("crossbar");
        m = crossbar::PhysicalSynthesis(topo, fp, style, params).evaluate();
      }
      table1_cells(out, t1 + tool, m.wavelengths, m.il_worst_db,
                   m.worst_path_mm, m.worst_crossings);
    };
    const crossbar::LambdaRouter lambda(n);
    crossbar_row("Proton+", lambda, crossbar::SynthesisStyle::kNaive);
    crossbar_row("PlanarONoC", lambda, crossbar::SynthesisStyle::kPlanarized);
    if (n == 8) {
      crossbar_row("ToPro", crossbar::Gwor(n), crossbar::SynthesisStyle::kCompact);
    } else {
      crossbar_row("ToPro", crossbar::Light(n), crossbar::SynthesisStyle::kCompact);
    }

    auto ring_row = [&](const char* name, const SweepResult& r, bool xr) {
      const analysis::RouterMetrics& m = r.result.metrics;
      table1_cells(out, t1 + name, m.wavelengths, m.il_worst_db,
                   m.worst_path_mm, m.worst_crossings);
      add_design(out, t1 + name, r.result, r.best_wl, xr);
    };
    ring_row("ORNoC",
             sweep(
                 [&](int wl) {
                   baseline::OrnocOptions o;
                   o.max_wavelengths = wl;
                   o.with_pdn = false;
                   o.params = params;
                   return run_ornoc(fp, ring, o);
                 },
                 SweepGoal::kMinWorstLoss, n / 2, n),
             false);
    ring_row("ORing",
             sweep(
                 [&](int wl) {
                   baseline::OringOptions o;
                   o.max_wavelengths = wl;
                   o.with_pdn = false;
                   o.params = params;
                   return run_oring(fp, ring, o);
                 },
                 SweepGoal::kMinWorstLoss, n / 2, n),
             false);

    SynthesisOptions base;
    base.build_pdn = false;
    base.openings.enable = false;
    base.params = params;
    const SweepCache cache = synth.make_sweep_cache(base, ring);
    const SweepResult xr = sweep(
        [&](int wl) {
          SynthesisOptions o = base;
          o.mapping.max_wavelengths = wl;
          return synth.run_with_ring(o, ring, &cache);
        },
        SweepGoal::kMinWorstLoss, n / 2, n);
    ring_row("XRing", xr, true);
    check_drc(out, t1 + "XRing", xr.result.design, xr.best_wl);
  }

  // Tables II (all sizes) and III (16 nodes): ring routers with PDNs at the
  // #wl minimizing power and at the one maximizing SNR.
  const phys::Parameters params = phys::Parameters::oring();
  SynthesisOptions base;
  base.params = params;
  const SweepCache cache = synth.make_sweep_cache(base, ring);
  for (const SweepGoal goal : {SweepGoal::kMinPower, SweepGoal::kMaxSnr}) {
    const std::string g = goal == SweepGoal::kMinPower ? "min_power" : "max_snr";
    const std::string t2 = "table2." + tag + "." + g + ".";
    const SweepResult ornoc = sweep(
        [&](int wl) {
          baseline::OrnocOptions o;
          o.max_wavelengths = wl;
          o.params = params;
          return run_ornoc(fp, ring, o);
        },
        goal, n / 2, n);
    table23_cells(out, t2 + "ORNoC", ornoc.result.metrics);
    add_design(out, t2 + "ORNoC", ornoc.result, ornoc.best_wl, false);

    const SweepResult xr = sweep(
        [&](int wl) {
          SynthesisOptions o = base;
          o.mapping.max_wavelengths = wl;
          return synth.run_with_ring(o, ring, &cache);
        },
        goal, n / 2, n);
    table23_cells(out, t2 + "XRing", xr.result.metrics);
    add_design(out, t2 + "XRing", xr.result, xr.best_wl, true);
    check_drc(out, t2 + "XRing", xr.result.design, xr.best_wl);

    if (n == 16) {
      // Table III's XRing rows are the Table II sweeps above.
      const std::string t3 = "table3." + tag + "." + g + ".";
      const SweepResult oring = sweep(
          [&](int wl) {
            baseline::OringOptions o;
            o.max_wavelengths = wl;
            o.params = params;
            return run_oring(fp, ring, o);
          },
          goal, n / 2, n);
      table23_cells(out, t3 + "ORing", oring.result.metrics);
      add_design(out, t3 + "ORing", oring.result, oring.best_wl, false);
      table23_cells(out, t3 + "XRing", xr.result.metrics);
    }
  }

  // Every expected cell of this network, at printed precision.
  const std::string mine = "." + tag + ".";
  const std::map<std::string, double>& expected = expected_cells();
  for (const auto& [key, want] : expected) {
    if (key.find(mine) == std::string::npos) continue;
    const auto it = out.cells.find(key);
    if (it == out.cells.end()) {
      out.failures.push_back(key + ": missing");
    } else if (it->second != want) {
      out.failures.push_back(key + ": " + obs::json_num(it->second) +
                             " != expected " + obs::json_num(want));
    }
  }
  for (const auto& [key, got] : out.cells) {
    if (expected.count(key) == 0) {
      out.failures.push_back(key + ": not in expected/paper.json");
    }
  }
  return out;
}

std::vector<Instance> paper_panel() {
  std::vector<Instance> panel;
  // 16 first: its warm-up job runs every table (I, II and III).
  expected_cells();
  for (const int n : {16, 8, 32}) {
    Instance in;
    in.label = "n";
    in.label += std::to_string(n);
    in.floorplan =
        std::make_unique<netlist::Floorplan>(netlist::Floorplan::standard(n));
    panel.push_back(std::move(in));
  }
  return panel;
}

// ---------------------------------------------------------------------------
// sweep64: a min-power #wl sweep over a jittered 8x8 grid.

std::vector<Instance> sweep64_panel() {
  std::vector<Instance> panel;
  for (int k = 0; k < 4; ++k) {
    Instance in;
    in.label = "grid8x8#" + std::to_string(k);
    in.floorplan = jittered_grid(8, 8, 0x640000 + k);
    panel.push_back(std::move(in));
  }
  return panel;
}

JobOutput sweep64_job(const Instance& in) {
  JobOutput out;
  const Synthesizer synth(*in.floorplan);
  build_oracle(synth);
  const SweepResult r =
      sweep_xring(synth, SynthesisOptions{}, SweepGoal::kMinPower, 32, 64);
  check_ring(out, r.result.ring_stats);
  add_design(out, "sweep", r.result, r.best_wl, true);
  check_drc(out, "sweep", r.result.design, r.best_wl);
  return out;
}

// ---------------------------------------------------------------------------
// single96: one CLI-style synthesis (#wl = n) of a jittered 8x12 grid.

std::vector<Instance> single96_panel() {
  std::vector<Instance> panel;
  for (int k = 0; k < 3; ++k) {
    Instance in;
    in.label = "grid8x12#" + std::to_string(k);
    in.floorplan = jittered_grid(8, 12, 0x960000 + k);
    panel.push_back(std::move(in));
  }
  return panel;
}

JobOutput single96_job(const Instance& in) {
  JobOutput out;
  const Synthesizer synth(*in.floorplan);
  build_oracle(synth);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = in.floorplan->size();
  const SynthesisResult r = synth.run(opt);
  check_ring(out, r.ring_stats);
  add_design(out, "synth", r, opt.mapping.max_wavelengths, true);
  check_drc(out, "synth", r.design, opt.mapping.max_wavelengths);
  return out;
}

// ---------------------------------------------------------------------------
// fixed512: Steps 2-4 on a user-supplied serpentine ring over a 16x32 grid.

/// Boustrophedon Hamiltonian cycle of a rows x cols grid (rows even):
/// serpentine over columns 1.. row by row, back up column 0. Crossing-free.
std::vector<netlist::NodeId> serpentine(int rows, int cols) {
  std::vector<netlist::NodeId> order;
  for (int r = 0; r < rows; ++r) {
    if (r % 2 == 0) {
      for (int c = 1; c < cols; ++c) order.push_back(r * cols + c);
    } else {
      for (int c = cols - 1; c >= 1; --c) order.push_back(r * cols + c);
    }
  }
  for (int r = rows - 1; r >= 0; --r) order.push_back(r * cols);
  return order;
}

std::vector<Instance> fixed512_panel() {
  constexpr int kRows = 16;
  constexpr int kCols = 32;
  std::vector<Instance> panel;
  // The same cycle entered at two start nodes, once in each direction.
  const std::pair<int, bool> variants[] = {{0, false}, {kRows * kCols / 2 + 7, true}};
  for (const auto& [start, reversed] : variants) {
    Instance in;
    in.label = "serpentine@" + std::to_string(start) + (reversed ? "-ccw" : "-cw");
    in.floorplan = std::make_unique<netlist::Floorplan>(
        netlist::Floorplan::grid(kRows, kCols, kPitch));
    std::vector<netlist::NodeId> order = serpentine(kRows, kCols);
    std::rotate(order.begin(), order.begin() + start, order.end());
    if (reversed) std::reverse(order.begin() + 1, order.end());
    in.ring.geometry =
        ring::realize(ring::Tour(std::move(order), in.floorplan.get()),
                      *in.floorplan);
    panel.push_back(std::move(in));
  }
  return panel;
}

JobOutput fixed512_job(const Instance& in) {
  JobOutput out;
  const Synthesizer synth(*in.floorplan);
  const SynthesisOptions opt;
  const SweepCache cache = synth.make_sweep_cache(opt, in.ring);
  const SynthesisResult r = synth.run_with_ring(opt, in.ring, &cache);
  add_design(out, "synth", r, opt.mapping.max_wavelengths, true);
  check_drc(out, "synth", r.design, opt.mapping.max_wavelengths);
  return out;
}

const Workload kWorkloads[] = {
    {"paper", 4, 6, false, paper_panel, paper_job},
    {"sweep64", 4, 4, false, sweep64_panel, sweep64_job},
    {"single96", 4, 3, true, single96_panel, single96_job},
    {"fixed512", 1, 2, true, fixed512_panel, fixed512_job},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.push_back(w.name);
  return names;
}

int job_order(std::uint64_t seed, int panel_size, long k) {
  const long pass = k / panel_size;
  std::uint64_t state = seed * 0x100000001b3ULL + static_cast<std::uint64_t>(pass);
  std::vector<int> perm(static_cast<std::size_t>(panel_size));
  for (int i = 0; i < panel_size; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int i = panel_size - 1; i > 0; --i) {
    const int j = static_cast<int>(mix(state) % static_cast<std::uint64_t>(i + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm[static_cast<std::size_t>(k % panel_size)];
}

}  // namespace perf
