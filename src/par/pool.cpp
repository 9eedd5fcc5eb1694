#include "par/pool.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/context.hpp"
#include "obs/obs.hpp"

namespace xring::par {

namespace {

/// Which pool (if any) the current thread is a worker of, and its queue
/// index there. Lets submit() route a worker's own spawns to its own deque.
thread_local ThreadPool* t_pool = nullptr;
thread_local std::size_t t_queue = 0;

/// XRING_JOBS under the CLI's --jobs rule: the whole value must be a
/// positive integer ("3x", "2.9", "0x2" and "four" are errors). Unset or
/// empty is 0, "not set".
int env_jobs() {
  const char* s = std::getenv("XRING_JOBS");
  if (s == nullptr || *s == '\0') return 0;
  const char* last = s + std::strlen(s);
  long v = 0;
  const auto [end, ec] = std::from_chars(s, last, v);
  if (ec != std::errc{} || end != last || v < 1) {
    throw std::invalid_argument("XRING_JOBS must be a positive integer");
  }
  return static_cast<int>(std::min(v, 512L));
}

/// The CPUs the workers are bound to, worker w to entry w mod size: the
/// calling thread's allowed CPUs other than the one it runs on, then that
/// one. Empty (workers float) with fewer than two allowed CPUs or off Linux.
std::vector<int> worker_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return cpus;
  }
  const int here = sched_getcpu();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed) && c != here) cpus.push_back(c);
  }
  if (here >= 0 && CPU_ISSET(here, &allowed)) cpus.push_back(here);
#endif
  return cpus;
}

/// Binds the calling thread to one CPU.
void bind_to(int cpu) {
#if defined(__linux__)
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
#else
  (void)cpu;
#endif
}

}  // namespace

int hardware_jobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int resolve_jobs(int requested) {
  if (requested > 0) return std::min(requested, 512);
  const int env = env_jobs();
  if (env > 0) return env;
  return hardware_jobs();
}

ThreadPool::ThreadPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  queues_.reserve(static_cast<std::size_t>(jobs_));
  for (int q = 0; q < jobs_; ++q) queues_.push_back(std::make_unique<Queue>());
  threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
  const std::vector<int> cpus = jobs_ > 1 ? worker_cpus() : std::vector<int>{};
  for (int w = 0; w < jobs_ - 1; ++w) {
    const int cpu =
        cpus.empty() ? -1 : cpus[static_cast<std::size_t>(w) % cpus.size()];
    threads_.emplace_back([this, w, cpu] {
      if (cpu >= 0) bind_to(cpu);
      worker_loop(static_cast<std::size_t>(w));
    });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  {
    // Pairs with the wait in worker_loop: taking the mutex here guarantees no
    // worker is between its predicate check and going to sleep.
    std::lock_guard<std::mutex> lk(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Anything still queued (e.g. submitted after workers started exiting)
  // runs here, so no submitted task is dropped.
  while (try_run_one()) {
  }
}

void ThreadPool::submit(std::function<void()> task) {
  obs::Context* ctx = obs::current_context();
  const std::size_t q =
      (t_pool == this) ? t_queue : 0;  // 0 = shared injection queue
  {
    std::lock_guard<std::mutex> lk(queues_[q]->mu);
    queues_[q]->tasks.push_back(Task{std::move(task), ctx});
  }
  const long depth = pending_.fetch_add(1, std::memory_order_release) + 1;
  if (ctx != nullptr) {
    obs::Registry& reg = ctx->registry();
    reg.counter("par.tasks").add();
    reg.histogram("par.queue_depth").observe(static_cast<double>(depth));
  }
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_from(std::size_t q, bool steal, Task& task) {
  Queue& queue = *queues_[q];
  std::lock_guard<std::mutex> lk(queue.mu);
  if (queue.tasks.empty()) return false;
  if (steal) {
    task = std::move(queue.tasks.front());
    queue.tasks.pop_front();
  } else {
    task = std::move(queue.tasks.back());
    queue.tasks.pop_back();
  }
  return true;
}

bool ThreadPool::next_task(std::size_t self, Task& task) {
  // Own deque, newest first.
  if (self > 0 && pop_from(self, /*steal=*/false, task)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  // Shared injection queue, oldest first.
  if (pop_from(0, /*steal=*/true, task)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  // Steal from the other workers, oldest first.
  for (std::size_t off = 1; off < queues_.size(); ++off) {
    const std::size_t victim = 1 + (self + off - 1) % (queues_.size() - 1);
    if (victim == self) continue;
    if (pop_from(victim, /*steal=*/true, task)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      // Charged to the stolen task's run: the thief may be an idle worker
      // with no context, or a helper recording another run.
      if (task.ctx != nullptr) task.ctx->registry().counter("par.steals").add();
      return true;
    }
  }
  return false;
}

void ThreadPool::run(Task& task) {
  const obs::ScopedContext scope(task.ctx);
  task.fn();
}

bool ThreadPool::try_run_one() {
  const std::size_t self = (t_pool == this) ? t_queue : 0;
  Task task;
  if (!next_task(self, task)) return false;
  run(task);
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_pool = this;
  t_queue = self + 1;  // queue 0 is the injection queue
  // Root the phase sampler's stacks for pool threads: samples taken while a
  // worker runs tasks fold under "par.worker" instead of an anonymous tid.
  obs::set_thread_label("par.worker");
  Task task;
  for (;;) {
    if (next_task(t_queue, task)) {
      run(task);
      task = Task{};  // release captures before sleeping
      continue;
    }
    std::unique_lock<std::mutex> lk(sleep_mu_);
    if (stop_.load(std::memory_order_relaxed)) break;
    sleep_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        pending_.load(std::memory_order_acquire) <= 0) {
      break;
    }
  }
  t_pool = nullptr;
  t_queue = 0;
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
int g_jobs_override = 0;  // 0 = env/hardware sizing

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(g_jobs_override);
  return *g_pool;
}

void set_jobs(int jobs) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_jobs_override = jobs > 0 ? jobs : 0;
  const int want = resolve_jobs(g_jobs_override);
  if (g_pool && g_pool->jobs() == want) return;
  g_pool.reset();  // joins workers and drains leftovers
  g_pool = std::make_unique<ThreadPool>(want);
}

int effective_jobs() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  return g_pool ? g_pool->jobs() : resolve_jobs(g_jobs_override);
}

namespace detail {

void drive(const std::shared_ptr<ForState>& st) {
  for (;;) {
    const long c = st->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= st->chunks) return;
    if (!st->failed.load(std::memory_order_relaxed)) {
      const long lo = st->begin + c * st->grain;
      const long hi = std::min(st->end, lo + st->grain);
      try {
        st->run_range(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(st->mu);
        if (st->failed_chunk < 0 || c < st->failed_chunk) {
          st->failed_chunk = c;
          st->error = std::current_exception();
        }
        st->failed.store(true, std::memory_order_relaxed);
      }
    }
    if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->chunks) {
      std::lock_guard<std::mutex> lk(st->mu);
      st->cv.notify_all();
      return;
    }
  }
}

void run_for(ThreadPool& pool, const std::shared_ptr<ForState>& st) {
  const long helpers =
      std::min<long>(pool.workers(), st->chunks - 1);
  st->unstarted.store(helpers, std::memory_order_relaxed);
  for (long h = 0; h < helpers; ++h) {
    pool.submit([st] {
      if (st->unstarted.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(st->mu);
        st->cv.notify_all();
      }
      drive(st);
    });
  }
  drive(st);
  // The caller ran out of chunks to claim; others may still be running
  // theirs, and helper tasks may still be queued. Wait until every chunk is
  // done and every helper has started: the pool reads a queued task's obs
  // context when it steals the task, and that context may end right after
  // this call. Help with unrelated pool work while waiting (nested loops).
  const auto finished = [&] {
    return st->done.load(std::memory_order_acquire) == st->chunks &&
           st->unstarted.load(std::memory_order_acquire) == 0;
  };
  while (!finished()) {
    if (pool.try_run_one()) continue;
    std::unique_lock<std::mutex> lk(st->mu);
    st->cv.wait_for(lk, std::chrono::milliseconds(1), finished);
  }
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace detail

}  // namespace xring::par
