// The parallel execution substrate: thread-pool mechanics (work stealing,
// exception propagation, nesting, degenerate ranges) and — the property the
// whole design hangs on — bit-identical results from the parallel sweep and
// the MILP search at 1, 2, and 8 threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "obs/context.hpp"
#include "obs/obs.hpp"
#include "par/pool.hpp"
#include "xring/sweep.hpp"

namespace xring {
namespace {

// --- Pool mechanics ------------------------------------------------------

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  par::parallel_for(pool, 0, 1000, [&](long i) { hits[i].fetch_add(1); }, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndNegativeRangesAreNoOps) {
  par::ThreadPool pool(4);
  int calls = 0;
  par::parallel_for(pool, 0, 0, [&](long) { ++calls; });
  par::parallel_for(pool, 5, 5, [&](long) { ++calls; });
  par::parallel_for(pool, 10, 3, [&](long) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleJobPoolRunsInlineInOrder) {
  par::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 0);
  std::vector<long> order;
  par::parallel_for(pool, 0, 16, [&](long i) { order.push_back(i); }, 3);
  ASSERT_EQ(order.size(), 16u);
  for (long i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ExceptionPropagatesAndPoolSurvives) {
  par::ThreadPool pool(4);
  auto boom = [&] {
    par::parallel_for(pool, 0, 100, [](long i) {
      if (i == 37) throw std::runtime_error("chunk failure");
    });
  };
  EXPECT_THROW(boom(), std::runtime_error);
  // The pool must stay serviceable after a failed loop.
  std::atomic<int> sum{0};
  par::parallel_for(pool, 0, 10, [&](long i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, NoHelperTaskOutlivesTheCall) {
  // Every worker is blocked, so the caller runs all chunks itself while its
  // helper tasks wait in the queue. The loop may not return while they are
  // queued: each carries the caller's obs context, which may end right
  // after the call.
  std::atomic<int> blocked{0};
  std::atomic<bool> release{false};
  par::ThreadPool pool(4);
  for (int w = 0; w < pool.workers(); ++w) {
    pool.submit([&] {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (blocked.load() < pool.workers()) std::this_thread::yield();
  std::atomic<int> iters{0};
  par::parallel_for(pool, 0, 8, [&](long) { iters.fetch_add(1); });
  EXPECT_EQ(iters.load(), 8);
  EXPECT_FALSE(pool.try_run_one());  // nothing of the loop is still queued
  release.store(true);
}

TEST(ParallelFor, NestedLoopsComplete) {
  par::ThreadPool pool(4);
  std::atomic<long> total{0};
  par::parallel_for(pool, 0, 8, [&](long) {
    par::parallel_for(pool, 0, 64, [&](long) { total.fetch_add(1); }, 8);
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ParallelReduce, ChunkOrderIsIndependentOfThreadCount) {
  // String concatenation is order-sensitive, so equality across pool sizes
  // proves the combine order is fixed by the chunking, not the scheduling.
  auto run = [](int jobs) {
    par::ThreadPool pool(jobs);
    return par::parallel_reduce(
        pool, 0, 26, std::string(),
        [](long i, std::string& acc) { acc += static_cast<char>('a' + i); },
        [](std::string& into, std::string& chunk) { into += chunk; }, 3);
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(Jobs, ResolutionOrderAndGlobalPoolResize) {
  par::set_jobs(3);
  EXPECT_EQ(par::effective_jobs(), 3);
  EXPECT_EQ(par::global_pool().jobs(), 3);
  par::set_jobs(0);  // back to env/hardware sizing
  EXPECT_GE(par::effective_jobs(), 1);
  EXPECT_GE(par::hardware_jobs(), 1);
  EXPECT_EQ(par::resolve_jobs(5), 5);
}

TEST(Jobs, EnvironmentVariableParsesLikeTheJobsFlag) {
  // resolve_jobs(0) reads XRING_JOBS without building a pool, so the cap
  // is checked on a value no pool is ever sized from.
  const char* saved = std::getenv("XRING_JOBS");
  const std::string restore = saved != nullptr ? saved : "";
  const auto resolve_with = [](const char* value) {
    ::setenv("XRING_JOBS", value, 1);
    return par::resolve_jobs(0);
  };
  EXPECT_EQ(resolve_with("3"), 3);
  EXPECT_EQ(resolve_with("600"), 512);
  EXPECT_EQ(resolve_with(""), par::hardware_jobs());  // empty means unset
  for (const char* bad : {"3x", "2.9", "0x2", "four", "0", "-2", " 3", "+3",
                          "99999999999999999999"}) {
    try {
      resolve_with(bad);
      ADD_FAILURE() << "XRING_JOBS=\"" << bad << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "XRING_JOBS must be a positive integer") << bad;
    }
  }
  // An explicit request never reads the variable.
  EXPECT_EQ(par::resolve_jobs(5), 5);
  if (saved != nullptr) {
    ::setenv("XRING_JOBS", restore.c_str(), 1);
  } else {
    ::unsetenv("XRING_JOBS");
  }
}

// --- Determinism regressions across thread counts ------------------------

/// Runs `fn` under a global pool of each thread count and checks all
/// results identical to the 1-thread (serial) run via `eq`.
template <class Fn, class Eq>
void expect_identical_at_1_2_8(Fn fn, Eq eq) {
  par::set_jobs(1);
  const auto serial = fn();
  par::set_jobs(2);
  const auto two = fn();
  par::set_jobs(8);
  const auto eight = fn();
  par::set_jobs(0);
  eq(serial, two);
  eq(serial, eight);
}

TEST(Determinism, SweepIdenticalAt128Threads) {
  const auto fp = netlist::Floorplan::standard(8);
  const Synthesizer synth(fp);
  SynthesisOptions base;
  auto run = [&] { return sweep_xring(synth, base, SweepGoal::kMinPower, 2, 6); };
  expect_identical_at_1_2_8(run, [](const SweepResult& a, const SweepResult& b) {
    EXPECT_EQ(a.best_wl, b.best_wl);
    EXPECT_EQ(a.settings_tried, b.settings_tried);
    // Bit-identical metrics, not just close: the ordered reduction replays
    // the serial accumulation exactly.
    EXPECT_EQ(a.result.metrics.il_star_worst_db, b.result.metrics.il_star_worst_db);
    EXPECT_EQ(a.result.metrics.il_worst_db, b.result.metrics.il_worst_db);
    EXPECT_EQ(a.result.metrics.total_power_w, b.result.metrics.total_power_w);
    EXPECT_EQ(a.result.metrics.snr_worst_db, b.result.metrics.snr_worst_db);
    EXPECT_EQ(a.result.metrics.wavelengths, b.result.metrics.wavelengths);
    ASSERT_EQ(a.result.metrics.signals.size(), b.result.metrics.signals.size());
    for (std::size_t i = 0; i < a.result.metrics.signals.size(); ++i) {
      EXPECT_EQ(a.result.metrics.signals[i].loss.total_db(),
                b.result.metrics.signals[i].loss.total_db());
      EXPECT_EQ(a.result.metrics.signals[i].noise_mw,
                b.result.metrics.signals[i].noise_mw);
    }
    EXPECT_GT(b.wall_seconds, 0.0);
    EXPECT_GE(b.seconds, 0.0);
  });
}

TEST(Determinism, MilpSearchIdenticalAt128Threads) {
  // Cycle cover with a lazy handler bolted on: exercises branching, lazy
  // rounds, and incumbent pruning.
  const int n = 13;
  milp::Model m;
  std::vector<int> x;
  for (int i = 0; i < n; ++i) x.push_back(m.add_binary(1.0));
  for (int i = 0; i < n; ++i) {
    m.add_constraint({{x[i], 1.0}, {x[(i + 1) % n], 1.0}},
                     milp::Sense::kGe, 1.0);
  }
  auto run = [&] {
    milp::BnbOptions opt;
    opt.lazy_handler = [&](const std::vector<double>& v) {
      // Forbid taking the first three nodes together.
      std::vector<milp::Constraint> cuts;
      if (v[x[0]] > 0.5 && v[x[1]] > 0.5 && v[x[2]] > 0.5) {
        cuts.push_back(milp::Constraint{
            {{x[0], 1.0}, {x[1], 1.0}, {x[2], 1.0}}, milp::Sense::kLe, 2.0});
      }
      return cuts;
    };
    return milp::solve(m, opt);
  };
  expect_identical_at_1_2_8(run, [](const milp::MipResult& a,
                                    const milp::MipResult& b) {
    ASSERT_EQ(a.status, b.status);
    EXPECT_EQ(a.objective, b.objective);  // exact, not approximate
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.lazy_constraints_added, b.lazy_constraints_added);
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);
  });
}

TEST(Determinism, WarmStartCountersIdenticalAt128Threads) {
  // The dual-simplex warm starts ride the parent's shared basis, and the
  // milp.warm_pivots / milp.cold_solves bookkeeping, like the lp.* counters,
  // must be the same at every thread count. The model forces a fractional
  // root and several levels of branching.
  milp::Model m;
  m.set_maximize(true);
  std::vector<int> x;
  for (int i = 0; i < 8; ++i) x.push_back(m.add_binary(3.0 + i));
  std::vector<std::pair<int, double>> knap;
  for (int i = 0; i < 8; ++i) knap.emplace_back(x[i], 2.0 + (i % 3));
  m.add_constraint(knap, milp::Sense::kLe, 11.0);
  m.add_constraint({{x[0], 1.0}, {x[7], 1.0}}, milp::Sense::kLe, 1.0);

  auto run = [&] {
    obs::Context ctx;
    const obs::ScopedContext scope(ctx);
    const milp::MipResult r = milp::solve(m, milp::BnbOptions{});
    return std::make_pair(r, ctx.registry().flatten());
  };
  expect_identical_at_1_2_8(run, [](const auto& a, const auto& b) {
    ASSERT_EQ(a.first.status, b.first.status);
    EXPECT_EQ(a.first.objective, b.first.objective);
    EXPECT_EQ(a.first.nodes, b.first.nodes);
    for (const char* key :
         {"milp.nodes", "milp.warm_pivots", "milp.cold_solves", "lp.solves",
          "lp.pivots", "milp.incumbents", "milp.incumbent.last"}) {
      const auto ia = a.second.find(key), ib = b.second.find(key);
      ASSERT_EQ(ia != a.second.end(), ib != b.second.end()) << key;
      if (ia != a.second.end()) {
        EXPECT_EQ(ia->second, ib->second) << key;
      }
    }
    // Warm starts must actually fire on a multi-node search.
    const auto wp = b.second.find("milp.warm_pivots");
    ASSERT_NE(wp, b.second.end());
    EXPECT_GT(wp->second, 0.0);
  });
}

}  // namespace
}  // namespace xring
