#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace xring::obs {

/// Background statistical profiler over the open-span stacks.
///
/// While running, a dedicated thread wakes every `interval_us` and records
/// (a) each registered thread's currently-open span path into a folded-stack
/// tally, and (b) the process RSS into the target registry's
/// `mem.rss_bytes` series (which the Chrome-trace exporter turns into
/// counter events and `rss_by_span()` aligns with span intervals). The
/// sampled threads pay nothing: the sampler only reads their published
/// atomics.
///
/// The folded output (`folded()`) is the `collapsed` format flamegraph.pl
/// and speedscope consume directly: one `path;seg;ments count` line per
/// distinct stack, where a labeled thread's path is rooted at its label
/// ("par.worker;mapping;…"). Threads with no open span and no label are not
/// tallied — nothing to attribute.
class PhaseSampler {
 public:
  /// Samples into `reg` (non-null; it must outlive the sampler) every
  /// `interval_us` microseconds.
  explicit PhaseSampler(Registry* reg, long long interval_us = 2000);
  ~PhaseSampler();

  PhaseSampler(const PhaseSampler&) = delete;
  PhaseSampler& operator=(const PhaseSampler&) = delete;

  void start();

  /// Stops the sampler thread (idempotent), takes a final sample, and
  /// publishes the memprof gauges into the registry.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Samples recorded so far.
  long long samples() const { return samples_.load(std::memory_order_acquire); }

  /// Folded-stack tallies, sorted by path for deterministic output.
  std::map<std::string, long long> folded_counts() const;

  /// The folded tallies rendered one "path count" line per stack.
  std::string folded() const;

  /// Renders folded() to `path` (throws std::runtime_error on I/O failure).
  void write_folded(const std::string& path) const;

 private:
  void run();
  void sample_once();

  Registry* reg_;
  const long long interval_us_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<long long> samples_{0};
  bool stop_requested_ = false;  // guarded by mu_
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, long long> counts_;  // guarded by mu_
};

/// RSS statistics of one span name, from aligning the registry's
/// `mem.rss_bytes` series with its span intervals: the highest sampled RSS
/// inside any instance of the span, and the RSS entering the instance that
/// produced that peak (so peak - start is the stage's own growth).
struct SpanRss {
  double peak_bytes = 0.0;
  double start_bytes = 0.0;
  long long samples = 0;  ///< RSS samples that landed inside the span
};

/// Aligns the `mem.rss_bytes` series with the recorded spans and returns
/// per-span-name RSS statistics (empty when either side is missing). Spans
/// shorter than the sampling interval may catch no sample and are omitted.
std::map<std::string, SpanRss> rss_by_span(const Registry& reg);

}  // namespace xring::obs
