#pragma once

#include <cstddef>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace xring::obs {

class Registry;

namespace events {

/// One key/value of an event record. Names are dotted-identifier literals
/// (they are embedded in JSON unescaped-checked); values are numeric — NaN
/// serializes as JSON null, matching the metrics exporters.
struct Field {
  const char* name;
  double value;
};

}  // namespace events

/// Append-only JSONL stream of solver progress events.
///
/// Each record() call serializes one line
/// `{"t_us":<now>,"kind":"<kind>",<fields...>}` — timestamped off the clock
/// registry's epoch so event times line up with the span trace of the run
/// the log belongs to. `Context::make_event_log` builds every installed log
/// with its context's registry as the clock.
///
/// Emission sites reach the log through `events::emit`, which resolves the
/// calling thread's installed obs::Context (obs/context.hpp): a context
/// with a log turns the instrumentation on, and without one every site
/// costs one thread-local read.
///
/// The same stream can drive a throttled single-line stderr progress
/// display (enable_progress): B&B events update incumbent/bound/gap/node
/// counts, LP events a refactorization count, and at most one line per
/// interval is rewritten in place with '\r'.
class EventLog {
 public:
  /// Timestamps every record off `clock`, which must outlive the log.
  explicit EventLog(const Registry& clock) : clock_(clock) {}

  /// Serializes and appends one event (thread-safe), and updates the
  /// progress display when one is enabled.
  void record(const char* kind, std::initializer_list<events::Field> fields);

  std::size_t size() const;

  /// All records, one JSON object per line, in emission order.
  std::string jsonl() const;

  /// Writes jsonl() to `path` (throws std::runtime_error on I/O failure).
  void write(const std::string& path) const;

  /// Mirrors solver progress to `to` (normally stderr) as a '\r'-rewritten
  /// line, at most once per `min_interval_s` (terminal events always
  /// print). Call finish_progress() to terminate the line with '\n'.
  void enable_progress(std::FILE* to, double min_interval_s = 0.25);
  void finish_progress();

 private:
  void update_progress_locked(const char* kind, double t_us);

  const Registry& clock_;
  mutable std::mutex mu_;
  std::vector<std::string> lines_;

  // Progress display state (guarded by mu_).
  std::FILE* progress_to_ = nullptr;
  double progress_interval_us_ = 250000.0;
  double progress_last_us_ = -1e300;
  bool progress_printed_ = false;
  double p_nodes_ = 0.0;
  double p_open_ = 0.0;
  double p_incumbent_ = 0.0;
  bool p_has_incumbent_ = false;
  double p_bound_ = 0.0;
  bool p_has_bound_ = false;
  double p_gap_ = 0.0;
  bool p_has_gap_ = false;
  double p_refactorizations_ = 0.0;
};

namespace events {

/// True when the calling thread has an event sink — the cheap gate
/// emission sites check before building field lists: an installed
/// obs::Context with an event log.
bool enabled();

/// Records into the calling thread's sink; no-op without one.
void emit(const char* kind, std::initializer_list<Field> fields);

}  // namespace events
}  // namespace xring::obs
