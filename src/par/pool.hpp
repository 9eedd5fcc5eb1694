#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xring::obs {
class Context;
}  // namespace xring::obs

namespace xring::par {

/// A small work-stealing thread pool.
///
/// Each worker owns a deque: it pushes and pops its own work LIFO (hot in
/// cache) and steals FIFO from the other end of a victim's deque when it runs
/// dry. Tasks submitted from outside the pool land in a shared injection
/// queue that workers drain like any other victim. The pool's *jobs* count is
/// the total concurrency it represents — `jobs - 1` background workers plus
/// the thread that drives work into it (parallel_for executes tasks on the
/// calling thread), so a 1-job pool spawns no threads and runs everything
/// inline.
///
/// On Linux each worker is bound to one CPU of the constructing thread's
/// allowed set, the CPUs other than the constructing thread's first, in
/// turn. Unbound, a parallel section's threads could all run on the CPU
/// that woke them while the others idled: on a 4-vCPU KVM guest the n = 96
/// conflict table at 4 jobs then took as long as at 1 (0.065 s wall for
/// 0.065 s of process CPU), and such spells lasted whole runs. The caller
/// stays unbound. Results do not depend on the binding.
///
/// Destruction finishes: workers drain every queued task before exiting, and
/// whatever is still queued after they are joined runs on the destructing
/// thread.
///
/// Observability contexts travel with the tasks: each queue entry carries
/// the submitting thread's installed obs::Context (obs/context.hpp, null
/// when none), and whichever thread runs the task — a worker, a thread
/// helping while it waits, or the destructor's drain — installs that
/// context for exactly the task's duration. parallel_for and
/// parallel_reduce funnel through submit(), so two runs scoped in
/// different contexts can share one pool and still record into fully
/// disjoint registries. The submitting context also receives the task's
/// scheduling counts: `par.tasks` and `par.queue_depth` at submit, and
/// `par.steals` when another thread steals the task. The submitter's
/// context must stay alive until each of its tasks has started and while
/// any of them records into it. Both constructs return only once every
/// chunk is done and every helper task has started, so a context scoped
/// around the parallel section (or the whole synthesis call) always
/// satisfies that.
class ThreadPool {
 public:
  /// `jobs <= 0` resolves to resolve_jobs(0) (XRING_JOBS env, then
  /// hardware_concurrency).
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency: background workers + the submitting thread.
  int jobs() const { return jobs_; }
  /// Background worker threads only (jobs() - 1).
  int workers() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task. From a worker of this pool the task goes to that
  /// worker's own deque (LIFO); otherwise to the shared injection queue.
  void submit(std::function<void()> task);

  /// Runs one pending task on the calling thread, if any is queued.
  /// Blocked waiters use this to help instead of idling, which also makes
  /// nested parallel sections deadlock-free.
  bool try_run_one();

 private:
  /// A queued task and its submitter's observability context.
  struct Task {
    std::function<void()> fn;
    obs::Context* ctx = nullptr;
  };
  struct Queue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t self);
  /// Pops from queue `q`; `steal` takes the FIFO end, own-pop the LIFO end.
  bool pop_from(std::size_t q, bool steal, Task& task);
  /// Own deque first, then the injection queue, then steal round-robin.
  bool next_task(std::size_t self, Task& task);
  /// Runs `task` under its submitter's context.
  static void run(Task& task);

  int jobs_ = 1;
  // queues_[0] is the injection queue; queues_[1 + i] belongs to worker i.
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<long> pending_{0};
  std::atomic<bool> stop_{false};
};

/// Effective hardware parallelism (>= 1 even when unknown).
int hardware_jobs();

/// Resolves a jobs request: explicit `requested` > 0 wins, then the
/// XRING_JOBS environment variable, then hardware_jobs(). Both are capped
/// at 512. Throws std::invalid_argument when XRING_JOBS is set to anything
/// but a positive integer.
int resolve_jobs(int requested);

/// The process-wide pool. Created on first use with resolve_jobs(0) unless
/// set_jobs() ran first. The reference stays valid until the next set_jobs().
ThreadPool& global_pool();

/// Resizes the global pool (0 = back to env/hardware sizing). Must not be
/// called while work is in flight on the global pool.
void set_jobs(int jobs);

/// The job count the global pool has (or would be created with).
int effective_jobs();

namespace detail {

/// Shared state of one parallel_for: chunks are claimed with an atomic
/// counter, so any mix of caller and helper threads makes progress, and a
/// helper task that starts after every chunk was claimed sees the counter
/// exhausted and returns without touching the body. run_for returns only
/// once every helper task has started, so none is still queued — carrying
/// the caller's obs context into a later steal — after the call.
struct ForState {
  long begin = 0;
  long end = 0;
  long grain = 1;
  long chunks = 0;
  std::atomic<long> next{0};
  std::atomic<long> done{0};
  std::atomic<long> unstarted{0};  // helper tasks not yet started
  std::function<void(long, long)> run_range;  // [lo, hi)
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> failed{false};
  long failed_chunk = -1;  // lowest failing chunk wins (deterministic rethrow)
  std::exception_ptr error;
};

void drive(const std::shared_ptr<ForState>& st);
void run_for(ThreadPool& pool, const std::shared_ptr<ForState>& st);

}  // namespace detail

/// Calls `body(i)` for every i in [begin, end), possibly concurrently.
/// Iterations are grouped into `grain`-sized chunks; the calling thread
/// participates, so the loop completes even on a 1-job pool (where it runs
/// perfectly serially, in order). If any invocation throws, remaining chunks
/// are abandoned and the exception from the lowest-indexed failing chunk is
/// rethrown on the caller.
template <class Body>
void parallel_for(ThreadPool& pool, long begin, long end, Body&& body,
                  long grain = 1) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const long n = end - begin;
  const long chunks = (n + grain - 1) / grain;
  if (pool.workers() == 0 || chunks <= 1) {
    for (long i = begin; i < end; ++i) body(i);
    return;
  }
  auto st = std::make_shared<detail::ForState>();
  st->begin = begin;
  st->end = end;
  st->grain = grain;
  st->chunks = chunks;
  // Safe to capture the body by reference: every chunk is finished before
  // run_for returns, and a helper that starts late never reaches it.
  st->run_range = [&body](long lo, long hi) {
    for (long i = lo; i < hi; ++i) body(i);
  };
  detail::run_for(pool, st);
}

/// Ordered parallel reduction: `body(i, acc)` folds element i into a
/// per-chunk accumulator seeded with `init`; chunk results are combined in
/// chunk order with `combine(into, chunk_result)`. The chunk partition
/// depends only on the range and `grain` — never on the thread count — so
/// the result is identical for any pool size (it differs from a serial
/// left fold only in where the chunk seams fall).
template <class T, class Body, class Combine>
T parallel_reduce(ThreadPool& pool, long begin, long end, T init, Body&& body,
                  Combine&& combine, long grain = 1) {
  if (end <= begin) return init;
  if (grain < 1) grain = 1;
  const long n = end - begin;
  const long chunks = (n + grain - 1) / grain;
  std::vector<T> partial(static_cast<std::size_t>(chunks), init);
  parallel_for(
      pool, 0, chunks,
      [&](long c) {
        T& acc = partial[static_cast<std::size_t>(c)];
        const long lo = begin + c * grain;
        const long hi = std::min(end, lo + grain);
        for (long i = lo; i < hi; ++i) body(i, acc);
      },
      1);
  T out = std::move(partial[0]);
  for (long c = 1; c < chunks; ++c) {
    combine(out, partial[static_cast<std::size_t>(c)]);
  }
  return out;
}

}  // namespace xring::par
