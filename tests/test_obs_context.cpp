// Scoped observability contexts: accessor routing and nesting, span
// registry capture across context switches, propagation through the shared
// thread pool (parallel_for, nested loops, help-while-waiting, steals), and
// the headline isolation guarantee — two concurrent syntheses on one pool
// record per-context metrics identical to the same synthesis run alone.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"
#include "obs/runstore.hpp"
#include "baseline/ornoc.hpp"
#include "par/pool.hpp"
#include "ring/builder.hpp"
#include "xring/sweep.hpp"
#include "xring/synthesizer.hpp"

namespace xring::obs {
namespace {

/// Restores the pool to its default size on the way out.
class ContextFixture : public ::testing::Test {
 protected:
  void TearDown() override { par::set_jobs(0); }
};

using ContextRouting = ContextFixture;
using ContextPool = ContextFixture;
using ContextEvents = ContextFixture;

TEST_F(ContextRouting, AccessorsResolveInstalledContextFirst) {
  Context ctx;
  EXPECT_FALSE(enabled());
  EXPECT_THROW(registry(), std::logic_error);
  {
    ScopedContext scope(ctx);
    EXPECT_TRUE(enabled());
    EXPECT_EQ(current_context(), &ctx);
    EXPECT_EQ(&registry(), &ctx.registry());
    registry().counter("ctx.hits").add();
  }
  EXPECT_EQ(current_context(), nullptr);
  EXPECT_FALSE(enabled());
  EXPECT_THROW(registry(), std::logic_error);
  EXPECT_EQ(ctx.registry().counters().at("ctx.hits"), 1);
}

TEST_F(ContextRouting, ScopedContextsNestAndRestoreInOrder) {
  Context outer, inner;
  {
    ScopedContext a(outer);
    {
      ScopedContext b(inner);
      EXPECT_EQ(current_context(), &inner);
      registry().counter("n").add();
    }
    EXPECT_EQ(current_context(), &outer);
    registry().counter("n").add();
  }
  EXPECT_EQ(current_context(), nullptr);
  EXPECT_EQ(outer.registry().counters().at("n"), 1);
  EXPECT_EQ(inner.registry().counters().at("n"), 1);
}

TEST_F(ContextRouting, ContextOverBorrowedRegistryRecordsThere) {
  Registry mine;
  Context ctx(&mine);
  {
    ScopedContext scope(ctx);
    registry().counter("borrowed").add(3);
  }
  EXPECT_EQ(mine.counters().at("borrowed"), 3);
}

TEST_F(ContextRouting, SpanStraddlingAContextSwitchKeepsItsRegistry) {
  Context ctx;
  {
    // The span opens while ctx is installed and closes after the scope
    // ended: it must record into the registry it captured at construction,
    // not whatever the thread resolved to at destruction time.
    auto scope = std::make_unique<ScopedContext>(ctx);
    Span span("straddle");
    scope.reset();
    EXPECT_EQ(current_context(), nullptr);
  }
  EXPECT_EQ(ctx.registry().spans().size(), 1u);
  EXPECT_EQ(ctx.registry().spans()[0].name, "straddle");
}

TEST_F(ContextPool, ParallelForRecordsIntoSubmittersContext) {
  par::set_jobs(4);
  Context ctx;
  {
    ScopedContext scope(ctx);
    par::parallel_for(par::global_pool(), 0, 200,
                      [](long) { registry().counter("iters").add(); });
  }
  EXPECT_EQ(ctx.registry().counters().at("iters"), 200);
}

TEST_F(ContextPool, NestedParallelismAndTaskGroupsPropagate) {
  // The production nesting: sweep settings in an outer parallel_for, each
  // running the analysis fan-out as an inner one.
  par::set_jobs(4);
  Context ctx;
  {
    ScopedContext scope(ctx);
    par::parallel_for(par::global_pool(), 0, 4, [](long) {
      par::parallel_for(par::global_pool(), 0, 25,
                        [](long) { registry().counter("nested").add(); });
    });
  }
  EXPECT_EQ(ctx.registry().counters().at("nested"), 4 * 25);
}

TEST_F(ContextPool, ConcurrentContextsStayDisjointOnOnePool) {
  // Two runs share the pool; blocked threads help with whichever tasks are
  // queued, including the other run's. Exact per-context totals prove every
  // task was charged to its submitter, whoever executed it.
  par::set_jobs(4);
  constexpr long kIters = 4000;
  Context a, b;
  std::thread ta([&] {
    ScopedContext scope(a);
    par::parallel_for(par::global_pool(), 0, kIters,
                      [](long) { registry().counter("mine").add(); });
  });
  std::thread tb([&] {
    ScopedContext scope(b);
    par::parallel_for(par::global_pool(), 0, kIters,
                      [](long) { registry().counter("mine").add(); });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.registry().counters().at("mine"), kIters);
  EXPECT_EQ(b.registry().counters().at("mine"), kIters);
}

TEST_F(ContextPool, StealsAreChargedToTheStolenTasksRun) {
  // One task, run by some worker under `ctx`, pushes kSubtasks onto that
  // worker's own deque and then blocks without helping: every subtask
  // must be stolen by another worker, none of which has a context
  // installed while it looks for work. Each steal belongs to the run.
  constexpr int kSubtasks = 64;
  Context ctx;
  std::atomic<int> done{0};
  std::promise<void> finished;
  par::ThreadPool pool(4);  // destroyed first: joins before the rest die
  {
    ScopedContext scope(ctx);
    pool.submit([&] {
      for (int i = 0; i < kSubtasks; ++i) {
        pool.submit([&done] { done.fetch_add(1); });
      }
      while (done.load() < kSubtasks) std::this_thread::yield();
      finished.set_value();
    });
  }
  finished.get_future().wait();
  EXPECT_EQ(ctx.registry().counters().at("par.steals"), kSubtasks);
  EXPECT_EQ(ctx.registry().counters().at("par.tasks"), kSubtasks + 1);
}

TEST_F(ContextEvents, EmitFollowsTheInstalledContext) {
  Context ctx;
  {
    ScopedContext scope(ctx);
    // A context without a sink drops events.
    EXPECT_FALSE(events::enabled());
    events::emit("dropped", {});

    EventLog& mine = ctx.make_event_log();
    EXPECT_TRUE(events::enabled());
    events::emit("scoped", {{"v", 1.0}});
    EXPECT_EQ(mine.size(), 1u);
  }
  // Outside the scope the thread has no sink at all.
  EXPECT_FALSE(events::enabled());
  events::emit("outside", {});
  EXPECT_EQ(ctx.event_log()->size(), 1u);
}

// ---------------------------------------------------------------------------
// Whole-pipeline isolation: the acceptance test of the context layer.

/// The per-context metric view the repo's own CI gates exactly (rel
/// tolerance 0): quality-class keys of the lp/mapping/milp/ring
/// subsystems, the LP's pivot and factorization counters included.
/// Scheduling telemetry (`par.*`) and time-like keys are excluded — the
/// same exclusions `xring_runs diff` applies.
std::map<std::string, double> quality_view(
    const std::map<std::string, double>& flat) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : flat) {
    if (classify_metric(name) != MetricClass::kQuality) continue;
    if (name.compare(0, 3, "lp.") == 0 || name.compare(0, 8, "mapping.") == 0 ||
        name.compare(0, 5, "milp.") == 0 || name.compare(0, 5, "ring.") == 0) {
      out[name] = value;
    }
  }
  return out;
}

std::map<std::string, double> synthesize_scoped(int nodes) {
  Context ctx;
  ScopedContext scope(ctx);
  const auto fp = netlist::Floorplan::standard(nodes);
  const Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = nodes;
  (void)synth.run(opt);
  return ctx.registry().flatten();
}

TEST(ObsContextSynthesis, ConcurrentRunsMatchSerialMetricsExactly) {
  par::set_jobs(4);
  // Reference: one synthesis with the pool to itself.
  const auto serial = quality_view(synthesize_scoped(8));
  ASSERT_FALSE(serial.empty());

  // Two identical syntheses at once, sharing the pool.
  std::map<std::string, double> a, b;
  std::thread ta([&] { a = quality_view(synthesize_scoped(8)); });
  std::thread tb([&] { b = quality_view(synthesize_scoped(8)); });
  ta.join();
  tb.join();
  par::set_jobs(0);

  // Bitwise-equal quality metrics: no lost updates, no cross-charging.
  EXPECT_EQ(a, serial);
  EXPECT_EQ(b, serial);
}

TEST(ObsContextSynthesis, PerContextCountersAreThreadCountInvariant) {
  std::map<std::string, double> by_jobs[3];
  const int jobs[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    par::set_jobs(jobs[i]);
    by_jobs[i] = synthesize_scoped(8);
  }
  par::set_jobs(0);
  EXPECT_EQ(quality_view(by_jobs[0]), quality_view(by_jobs[1]));
  EXPECT_EQ(quality_view(by_jobs[0]), quality_view(by_jobs[2]));
  // The scoped run records the solver layers into its own registry.
  EXPECT_GE(by_jobs[0].count("milp.solves"), 1u);
  EXPECT_EQ(by_jobs[0].count("span.synth.total_s"), 1u);
  bool has_lp = false;
  for (const auto& [name, value] : by_jobs[0]) {
    if (name.compare(0, 3, "lp.") == 0) has_lp = true;
  }
  EXPECT_TRUE(has_lp);
}

/// The mapping-shape gauges of Table II's n = 16 min-power sweeps (ORNoC and
/// XRing, #wl 8..16). The settings run concurrently at jobs > 1 and finish
/// in any order, so these must be order-free aggregates.
std::map<std::string, double> table2_sweep_gauges() {
  Context ctx;
  ScopedContext scope(ctx);
  const int n = 16;
  const auto params = phys::Parameters::oring();
  const auto fp = netlist::Floorplan::standard(n);
  const Synthesizer synth(fp);
  const auto ring = ring::build_ring(fp, synth.oracle(), {});
  (void)sweep(
      [&](int wl) {
        baseline::OrnocOptions o;
        o.max_wavelengths = wl;
        o.params = params;
        return baseline::synthesize_ornoc(fp, ring, o);
      },
      SweepGoal::kMinPower, n / 2, n);
  SynthesisOptions base;
  base.params = params;
  const SweepCache cache = synth.make_sweep_cache(base, ring);
  (void)sweep(
      [&](int wl) {
        SynthesisOptions o = base;
        o.mapping.max_wavelengths = wl;
        return synth.run_with_ring(o, ring, &cache);
      },
      SweepGoal::kMinPower, n / 2, n);
  std::map<std::string, double> out;
  for (const auto& [name, value] : ctx.registry().gauges()) {
    if (name.compare(0, 8, "mapping.") == 0) out[name] = value;
  }
  return out;
}

TEST(ObsContextSynthesis, SweepMappingGaugesAreJobCountInvariant) {
  par::set_jobs(1);
  const auto serial = table2_sweep_gauges();
  par::set_jobs(8);
  const auto wide = table2_sweep_gauges();
  par::set_jobs(0);
  ASSERT_EQ(serial.count("mapping.ring_waveguides"), 1u);
  ASSERT_EQ(serial.count("mapping.wavelengths_used"), 1u);
  ASSERT_EQ(serial.count("mapping.shortcut_routes"), 1u);
  EXPECT_EQ(serial, wide);
}

}  // namespace
}  // namespace xring::obs
