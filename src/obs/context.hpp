#pragma once

#include <memory>

namespace xring::obs {

class Registry;
class EventLog;

/// One run's observability bundle: a metrics/span `Registry` and an
/// optional solver-event sink, so two synthesis runs in one process record
/// into fully disjoint state.
///
/// A context is *installed* on a thread with `ScopedContext`, and recording
/// happens only there: `obs::enabled()` is true exactly while a context is
/// installed, and `obs::registry()` and `events::emit()` resolve through
/// it. The thread pool carries each task's submitting context with the
/// task (see par/pool.hpp), so a context scoped around a synthesis call
/// captures the whole run — including work executed by shared pool
/// workers and by unrelated threads helping while they wait. A thread the
/// caller starts itself records only after installing a context.
///
/// Ownership rules: the context owns its registry (unless constructed over a
/// borrowed one) and the event log made with `make_event_log()`. A context
/// must stay alive until every pool task submitted while it was current has
/// started, and while any of them records into it; the library's parallel
/// constructs (`parallel_for`, `parallel_reduce`) return only once all
/// their work is done and all their helper tasks have started, so scoping
/// a context around a synthesis call is always safe.
class Context {
 public:
  /// Owns a fresh Registry.
  Context();

  /// Borrows `reg` (the caller keeps ownership).
  explicit Context(Registry* reg);

  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  Registry& registry() const { return *reg_; }

  /// The context's event sink, or nullptr. While the context is installed,
  /// `events::emit` goes here; a context without a sink drops events.
  EventLog* event_log() const { return log_.get(); }

  /// Creates the context's event log, timestamped off this context's
  /// registry so event times share the span epoch, and returns it. Call it
  /// before the run starts; a second call replaces the first log.
  EventLog& make_event_log();

 private:
  std::unique_ptr<Registry> owned_reg_;
  Registry* reg_;
  std::unique_ptr<EventLog> log_;
};

/// The calling thread's installed context, or nullptr when none is.
Context* current_context();

/// RAII context installer. Saves the thread's current context and installs
/// `ctx` for the scope's lifetime; nests freely (the previous context, or
/// none, is restored on destruction). The pool runs every task under one
/// of these with the task's submitting context, so a thread helping
/// another run while blocked records that work into the other run's
/// context and returns to its own afterwards.
class ScopedContext {
 public:
  explicit ScopedContext(Context& ctx) : ScopedContext(&ctx) {}
  /// Installs `ctx`, or no context at all when it is nullptr.
  explicit ScopedContext(Context* ctx);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context* prev_;
};

}  // namespace xring::obs
