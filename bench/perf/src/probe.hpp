#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perf {

/// Host-speed probe. A background thread sorts one fixed, cache-resident
/// array every few milliseconds and records each sort's CPU time (thread
/// CPU clock, so waiting for a busy processor does not count). On a shared
/// machine the speed of a processor drifts with its neighbours' load, by
/// tens of percent within seconds; the probe's median over a run measures
/// the speed that run saw, so timings can be scaled to a fixed reference
/// speed. The probe's code is the benchmark's own and never changes with
/// the library.
class SpeedProbe {
 public:
  SpeedProbe();
  ~SpeedProbe();

  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Stops sampling (idempotent) and joins the thread.
  void stop();

  /// Median CPU seconds of one sort so far.
  double sort_seconds() const;

  /// CPU seconds the probe thread has used so far, all of its overhead
  /// included, so callers can take it out of process CPU time.
  double cpu_seconds() const;

 private:
  void loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;             // guarded by mu_
  std::vector<double> samples_;   // guarded by mu_
  double cpu_s_ = 0.0;            // guarded by mu_
  std::uint64_t median_key_ = 0;  // guarded by mu_
  std::thread thread_;            // last: starts after the members it uses
};

/// CPU seconds one probe sort takes at the reference speed. Scaling a time
/// by reference_scale() expresses it in reference seconds: the seconds it
/// would take on a processor where the probe sort takes exactly this long.
constexpr double kProbeReferenceSeconds = 1e-3;

inline double reference_scale(const SpeedProbe& probe) {
  return kProbeReferenceSeconds / probe.sort_seconds();
}

}  // namespace perf
