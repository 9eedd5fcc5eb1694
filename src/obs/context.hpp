#pragma once

#include <atomic>
#include <memory>

namespace xring::obs {

class Registry;
class EventLog;

/// One run's observability bundle: a metrics/span `Registry`, an optional
/// solver-event sink, and the tracing master switch — everything the
/// process-global layer used to hold once, scoped so two synthesis runs in
/// one process record into fully disjoint state.
///
/// A context is *installed* on a thread with `ScopedContext`; every
/// instrumentation accessor (`obs::registry()`, `obs::enabled()`,
/// `events::log()`/`events::emit()`) resolves through the calling thread's
/// installed context first and falls back to the process-global root state
/// (the classic `swap_registry`/`swap_log`/`set_enabled` globals) when none
/// is installed. The thread pool propagates the submitter's installed
/// context into every task it runs (see par/pool.hpp), so a context scoped
/// around a synthesis call captures the whole run — including work executed
/// by shared pool workers and by unrelated threads helping while they wait.
///
/// Ownership rules: the context owns its registry (unless constructed over a
/// borrowed one) and any event log made with `make_event_log()`. A context
/// must outlive every pool task submitted while it was current; the
/// library's parallel constructs (`parallel_for`, `parallel_reduce`) wait
/// for their tasks before returning, so scoping a context around a
/// synthesis call is always safe.
class Context {
 public:
  /// Owns a fresh Registry; tracing starts enabled (a context exists to
  /// record — the global `set_enabled` switch only governs the root).
  Context();

  /// Borrows `reg` (the caller keeps ownership); tracing starts enabled.
  explicit Context(Registry* reg);

  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  Registry& registry() const { return *reg_; }

  /// This context's tracing switch — what `obs::enabled()` returns on
  /// threads where the context is installed.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// The context's event sink, or nullptr. While the context is installed,
  /// `events::emit` goes here and *only* here — a non-root context without a
  /// sink drops events rather than leak them into the process-global log.
  EventLog* event_log() const {
    return events_.load(std::memory_order_acquire);
  }

  /// Installs a borrowed sink (nullptr uninstalls) and pins its clock to
  /// this context's registry so event timestamps share the span epoch.
  void set_event_log(EventLog* log);

  /// Creates an owned EventLog, installs it, and returns it. Replaces a
  /// previously made one.
  EventLog& make_event_log();

 private:
  std::unique_ptr<Registry> owned_reg_;
  Registry* reg_;
  std::unique_ptr<EventLog> owned_log_;
  std::atomic<EventLog*> events_{nullptr};
  std::atomic<bool> enabled_{true};
};

/// The calling thread's installed context, or nullptr when the thread runs
/// in the root (process-global) context.
Context* current_context();

/// RAII context installer. Saves the thread's current context and installs
/// `ctx` for the scope's lifetime; nests freely (the previous context —
/// root or another scope — is restored on destruction). The pool's task
/// wrapper uses exactly this to run each task under its submitter's
/// context, so a thread helping another run while blocked records that
/// work into the other run's context and returns to its own afterwards.
class ScopedContext {
 public:
  explicit ScopedContext(Context& ctx);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context* prev_;
};

}  // namespace xring::obs
