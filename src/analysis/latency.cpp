#include "analysis/latency.hpp"

namespace xring::analysis {

LatencyReport compute_latency(const RouterMetrics& metrics,
                              double group_index) {
  constexpr double kSpeedOfLightMmPerPs = 0.299792458;
  LatencyReport report;
  report.per_signal_ps.reserve(metrics.signals.size());
  double sum = 0.0;
  for (const SignalReport& s : metrics.signals) {
    const double ps = s.loss.path_mm * group_index / kSpeedOfLightMmPerPs;
    report.per_signal_ps.push_back(ps);
    report.worst_ps = std::max(report.worst_ps, ps);
    sum += ps;
  }
  if (!metrics.signals.empty()) {
    report.mean_ps = sum / static_cast<double>(metrics.signals.size());
  }
  return report;
}

}  // namespace xring::analysis
