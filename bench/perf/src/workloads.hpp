#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netlist/floorplan.hpp"
#include "ring/builder.hpp"

namespace perf {

/// One input of a workload's panel. The panel is fixed per workload; the
/// seed only decides the order jobs visit it (see job_order), so the quality
/// metrics, which aggregate over the whole panel, are the same at every
/// seed. Set-up's warm-up job runs on the first instance.
struct Instance {
  std::string label;
  /// Heap-held: Synthesizer keeps a pointer to its floorplan.
  std::unique_ptr<xring::netlist::Floorplan> floorplan;
  /// `fixed512` only: the user-supplied ring.
  xring::ring::RingBuildResult ring;
};

/// Quality summary of one synthesized design: the fields the trace identity
/// check compares bit for bit.
struct DesignSummary {
  std::string label;
  int best_wl = 0;  ///< chosen #wl of a sweep, the #wl cap otherwise
  double il_star_worst_db = 0.0;
  double total_power_w = 0.0;
  double snr_worst_db = 0.0;
  int wavelengths = 0;
  int waveguides = 0;
  int noisy_signals = 0;
  /// Counted in the workload's quality metrics (XRing designs only).
  bool quality = false;

  bool operator==(const DesignSummary&) const = default;
};

/// What one job produced and whether it passed its checks.
struct JobOutput {
  std::vector<DesignSummary> designs;
  /// `paper` only: every table cell except T, as printed.
  std::map<std::string, double> cells;
  /// Empty when the job passed every check.
  std::vector<std::string> failures;
};

/// A job calls the library's public entry points directly. The only spans
/// it opens itself (obs::Span, recorded only while tracing is on) are around
/// calls the library does not span: the Step-1 conflict oracle, the crossbar
/// tools, and the two baselines, whose library spans share one name.
struct Workload {
  std::string name;
  int pool = 1;  ///< global pool width (jobs), capped at the hardware's
  /// Cap on traced jobs in `trace` mode.
  int trace_jobs = 1;
  /// Traced jobs must cover the job wall time with layer spans (within 5%):
  /// true where every layer call runs alone.
  bool check_coverage = false;
  std::vector<Instance> (*make_panel)() = nullptr;
  JobOutput (*job)(const Instance&) = nullptr;
};

/// The four workloads, by name; nullptr if unknown.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Panel index of the `k`-th job at `seed`: the panel is visited in passes,
/// each a seeded shuffle of every instance.
int job_order(std::uint64_t seed, int panel_size, long k);

}  // namespace perf
