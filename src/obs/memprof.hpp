#pragma once

namespace xring::obs {

class Registry;

/// Memory accounting for the profiling layer: the OS's resident-set
/// readings, at zero per-allocation cost. The background `PhaseSampler`
/// turns `rss_bytes()` into a `mem.rss_bytes` time series whose per-span
/// peaks (`rss_by_span`) attribute the process's memory wall to pipeline
/// stages.
namespace memprof {

/// Current resident-set size of the process in bytes (0 when the platform
/// offers no way to read it).
long long rss_bytes() noexcept;

/// High-water-mark RSS of the process in bytes (0 when unknown).
long long peak_rss_bytes() noexcept;

/// Publishes the process-wide gauges `mem.rss_bytes` and
/// `mem.peak_rss_bytes` into `reg`. The sampler calls this on stop().
void publish(Registry& reg);

}  // namespace memprof
}  // namespace xring::obs
