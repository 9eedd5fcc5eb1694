#pragma once

#include <map>
#include <string>

#include "obs/obs.hpp"

namespace perf {

/// Per-layer view of traced jobs, derived from what one registry recorded
/// while they ran: the library's own spans and counters, plus the few spans
/// the benchmark opens around calls the library does not span.
struct LayerReport {
  /// Every per-layer metric of BENCHMARK.json, by name.
  std::map<std::string, double> metrics;
  /// Self time per job, by layer (unknown span names keep their own name).
  std::map<std::string, double> self_s;
  double thread_s = 0.0;  ///< Σ self time of every span, per job
  /// Self time of the orchestration spans over the jobs' wall time: the
  /// share of a job that no layer span accounts for.
  double uncovered_frac = 0.0;
};

/// `jobs` traced jobs, each recorded under a benchmark span named "job";
/// `pool` is the pool width they ran on.
LayerReport layer_report(const xring::obs::Registry& reg, int jobs, int pool);

}  // namespace perf
