#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/memprof.hpp"

namespace xring::obs {

/// Monotonically increasing event count. Thread-safe; cheap enough to sit in
/// per-solve (not per-iteration) positions of the hot paths.
class Counter {
 public:
  void add(long long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

/// Last-write-wins scalar (e.g. "wavelengths used by the final mapping").
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the value to `v` if `v` is larger: a running maximum that does
  /// not depend on the order concurrent writers finish in. A fresh gauge
  /// reads 0, so this suits non-negative quantities.
  void max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean() const { return count > 0 ? sum / count : 0.0; }
};

/// Streaming distribution summary (count/sum/min/max). Observation sites are
/// expected to be per-solve or per-flow, not per-inner-iteration.
class Histogram {
 public:
  void observe(double v);
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  HistogramSnapshot snap_;
};

/// One closed span, timestamped in microseconds relative to the registry
/// epoch. `depth` is the nesting level on the recording thread (0 = root);
/// Chrome tracing reconstructs the same hierarchy from ts/dur containment.
///
/// The `alloc_*`/`peak_delta_bytes` fields carry the span's allocation
/// accounting (inclusive of children, from the recording thread's
/// perspective) and stay 0 unless the build interposes the allocator
/// (`-DXRING_PROFILE_ALLOC=ON`, see obs/memprof.hpp).
struct SpanEvent {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;
  std::uint64_t thread_id = 0;
  long long alloc_bytes = 0;       ///< bytes allocated while the span was open
  long long freed_bytes = 0;       ///< bytes freed while the span was open
  long long alloc_count = 0;       ///< allocation calls while open
  long long peak_delta_bytes = 0;  ///< peak of live bytes above the open level
};

/// One sample of a timestamped series (e.g. the MILP incumbent timeline).
struct SeriesPoint {
  double t_us = 0.0;
  double value = 0.0;
};

enum class Severity { kInfo, kWarning, kError };

const char* to_string(Severity s);

/// One structured diagnostic event. Pipeline stages emit these for the
/// conditions a designer must know about to trust (or debug) a run: DRC
/// violations, solver trouble (infeasible / limits hit), wavelength-cap
/// overflows, and SNR threshold breaches. `code` is a stable dotted
/// identifier ("milp.infeasible") that tooling keys on; `message` is for
/// humans; `context` carries machine-readable key/value detail in emission
/// order. `t_us` is stamped by Registry::diagnose.
struct Diagnostic {
  Severity severity = Severity::kInfo;
  std::string code;
  std::string message;
  std::vector<std::pair<std::string, std::string>> context;
  double t_us = 0.0;
};

/// Owns every metric and span of one run. Metric accessors return stable
/// references (map nodes never move), so instrumentation sites may cache
/// them. All methods are thread-safe. The registry itself always works;
/// the global `enabled()` flag only gates the *instrumentation sites*, so a
/// bench can record its own results into a disabled-tracing registry.
class Registry {
 public:
  Registry();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Appends a point (timestamped now) to the named series.
  void append_series(const std::string& name, double value);

  /// Records a diagnostic (timestamped now). Emission sites gate on
  /// `enabled()` like every other instrumentation site.
  void diagnose(Diagnostic d);

  void record_span(SpanEvent ev);

  /// Microseconds elapsed since construction / last reset().
  double now_us() const;

  /// Converts a steady_clock instant to microseconds since the epoch.
  double to_epoch_us(std::chrono::steady_clock::time_point t) const;

  // Snapshots (copies; safe to hold while recording continues).
  std::vector<SpanEvent> spans() const;
  std::map<std::string, long long> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, HistogramSnapshot> histograms() const;
  std::map<std::string, std::vector<SeriesPoint>> series() const;
  std::vector<Diagnostic> diagnostics() const;

  /// Flat {name: value} view of everything: counters and gauges verbatim,
  /// histograms as name.count/.sum/.mean/.min/.max (the statistics are
  /// omitted while count is 0 — an unobserved histogram has no min/max),
  /// series as name.count and name.last, per-span-name aggregates as
  /// span.<name>.count and span.<name>.total_s, and per-severity diagnostic
  /// counts as diag.<severity> (only when diagnostics were recorded). This
  /// is what the metrics exporters serialize.
  std::map<std::string, double> flatten() const;

  /// Drops all metrics, spans, and buffered diagnostics and restarts the
  /// epoch.
  void reset();

 private:
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::vector<SeriesPoint>> series_;
  std::vector<SpanEvent> spans_;
  std::vector<Diagnostic> diagnostics_;
};

/// Tracing/metrics master switch of the calling thread. With an
/// obs::Context installed (obs/context.hpp) this is the context's own flag;
/// otherwise the process-global root flag, off by default. Every
/// instrumentation site checks it before touching the registry, so a
/// disabled path costs one thread-local read plus one relaxed atomic load.
bool enabled();

/// Sets the process-global root flag (an installed context's flag is set
/// via Context::set_enabled instead).
void set_enabled(bool on);

/// The registry instrumentation sites write to: the calling thread's
/// installed context's registry (obs/context.hpp), or — when no context is
/// installed — the process-global root registry. The thread pool installs
/// the submitting thread's context in its workers for each task's
/// duration, so an instrumentation site never needs to know which case it
/// is in.
Registry& registry();

/// Swaps the *root* registry (tests install a fresh one; pass nullptr to
/// restore the built-in default). Returns the previous override, or nullptr
/// if the default was active. The caller keeps ownership of both. Threads
/// running under an installed context are unaffected — scoped runs do not
/// see root swaps, and vice versa.
Registry* swap_registry(Registry* r);

/// Emission helper for instrumentation sites: records the diagnostic into
/// the global registry, but only when tracing is enabled (the same gate the
/// metric sites use), so a disabled run pays one relaxed atomic load.
void diagnose(Severity severity, std::string code, std::string message,
              std::vector<std::pair<std::string, std::string>> context = {});

/// RAII wall-clock span. Construction always stamps the start time (so
/// `elapsed_seconds()` works even with tracing disabled — the synthesizer
/// derives its reported `seconds` from the root span); an event is recorded
/// into the registry only when tracing was enabled at construction.
///
/// The target registry is captured at construction: a span that straddles a
/// `swap_registry()` call records into the registry it started in, never
/// half into one run's registry and half into the next's. An active span
/// also publishes its name into the thread's open-span stack so the phase
/// sampler (obs/sampler.hpp) can observe where each thread currently is.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since construction; independent of the enabled flag.
  double elapsed_seconds() const;

  /// Records the event now (idempotent; the destructor calls it too).
  void close();

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  Registry* reg_ = nullptr;  ///< captured at construction (see class comment)
  memprof::AllocMark mark_;  ///< allocation snapshot at open
  int depth_ = 0;
  bool active_ = false;  ///< tracing was enabled when the span opened
};

/// Snapshot of one thread's currently-open span stack, outermost first.
/// `label` is the role name installed via set_thread_label() (e.g.
/// "par.worker"), or empty for unlabeled threads. The name pointers are the
/// string literals the spans were built from and stay valid for the process
/// lifetime.
struct ThreadPath {
  std::uint64_t thread_id = 0;
  std::string label;
  std::vector<const char*> names;
};

/// Labels the calling thread for the phase sampler (string literal expected;
/// the pointer is stored, not copied). The thread-pool workers label
/// themselves "par.worker" so flamegraphs separate pool work from the
/// caller's stack.
void set_thread_label(const char* label);

/// Snapshot of every registered thread's open-span stack. Threads register
/// on their first span (or set_thread_label) and unregister at thread exit.
/// Lock-free on the recording side; safe to call concurrently with spans
/// opening and closing — a racing sample sees either the old or the new
/// frame, both valid paths.
std::vector<ThreadPath> open_span_paths();

}  // namespace xring::obs
