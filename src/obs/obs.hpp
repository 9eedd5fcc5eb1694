#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace xring::obs {

/// Monotonically increasing event count. Thread-safe; cheap enough to sit in
/// per-solve (not per-iteration) positions of the hot paths.
class Counter {
 public:
  void add(long long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }

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

 private:
  mutable std::mutex mu_;
  HistogramSnapshot snap_;
};

/// One closed span, timestamped in microseconds relative to the registry
/// epoch. `depth` is the nesting level on the recording thread (0 = root);
/// Chrome tracing reconstructs the same hierarchy from ts/dur containment.
struct SpanEvent {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;
  std::uint64_t thread_id = 0;
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
/// `enabled()` only gates the *instrumentation sites*, so a bench can
/// record its own results into a registry no context installs.
class Registry {
 public:
  Registry();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Appends a point (timestamped now) to the named series.
  void append_series(const std::string& name, double value);

  /// Records a diagnostic (timestamped now). Emission sites go through
  /// `obs::diagnose`, which gates on `enabled()`.
  void diagnose(Diagnostic d);

  void record_span(SpanEvent ev);

  /// Microseconds elapsed since construction.
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

/// Whether the calling thread records: true exactly while an obs::Context
/// is installed on it (obs/context.hpp). Every instrumentation site checks
/// it before touching the registry, so an untraced path costs one
/// thread-local read.
bool enabled();

/// The installed context's registry — where instrumentation sites write.
/// The thread pool installs each task's submitting context around the task
/// (par/pool.hpp), so a site never needs to know which thread it runs on.
/// Throws std::logic_error when no context is installed: call it only
/// behind `enabled()`.
Registry& registry();

/// Emission helper for instrumentation sites: records the diagnostic into
/// the installed context's registry, or does nothing when none is
/// installed.
void diagnose(Severity severity, std::string code, std::string message,
              std::vector<std::pair<std::string, std::string>> context = {});

/// RAII wall-clock span. Construction always stamps the start time (so
/// `elapsed_seconds()` works untraced too — the synthesizer derives its
/// reported `seconds` from the root span); an event is recorded only when a
/// context was installed at construction.
///
/// The target registry is captured at construction: a span that closes
/// under a different `ScopedContext` records into the registry it started
/// in, never half into one run's registry and half into the next's. An
/// active span also publishes its name into the thread's open-span stack so
/// the phase sampler (obs/sampler.hpp) can observe where each thread
/// currently is.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since construction; recorded or not.
  double elapsed_seconds() const;

  /// Records the event now (idempotent; the destructor calls it too).
  void close();

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  Registry* reg_ = nullptr;  ///< captured at construction; null = untraced
  int depth_ = 0;
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
