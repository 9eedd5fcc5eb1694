// Scoped observability contexts: accessor routing and nesting, span/clock
// pinning across context switches, propagation through the shared thread
// pool (parallel_for, nested loops, help-while-waiting), and the
// headline isolation guarantee — two concurrent syntheses on one pool
// record per-context metrics identical to the same synthesis run alone.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/memprof.hpp"
#include "obs/obs.hpp"
#include "obs/runstore.hpp"
#include "obs/sampler.hpp"
#include "baseline/ornoc.hpp"
#include "par/pool.hpp"
#include "ring/builder.hpp"
#include "xring/sweep.hpp"
#include "xring/synthesizer.hpp"

namespace xring::obs {
namespace {

/// Installs a fresh *root* registry for one test so assertions about what
/// leaked to (or stayed out of) the root are exact, and restores the pool
/// to its default size on the way out.
class ContextFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = swap_registry(&root_);
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    swap_registry(prev_);
    par::set_jobs(0);
  }

  Registry root_;
  Registry* prev_ = nullptr;
};

using ContextRouting = ContextFixture;
using ContextPool = ContextFixture;
using ContextEvents = ContextFixture;
using ContextSampler = ContextFixture;

TEST_F(ContextRouting, AccessorsResolveInstalledContextFirst) {
  Context ctx;
  EXPECT_EQ(&registry(), &root_);
  {
    ScopedContext scope(ctx);
    EXPECT_EQ(current_context(), &ctx);
    EXPECT_EQ(&registry(), &ctx.registry());
    registry().counter("ctx.hits").add();
  }
  EXPECT_EQ(current_context(), nullptr);
  EXPECT_EQ(&registry(), &root_);
  EXPECT_EQ(ctx.registry().counters().at("ctx.hits"), 1);
  EXPECT_EQ(root_.counters().count("ctx.hits"), 0u);
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

TEST_F(ContextRouting, EnabledFlagIsPerContext) {
  set_enabled(false);  // root tracing off
  Context ctx;         // contexts start enabled
  EXPECT_FALSE(enabled());
  {
    ScopedContext scope(ctx);
    EXPECT_TRUE(enabled());
    ctx.set_enabled(false);
    EXPECT_FALSE(enabled());
    ctx.set_enabled(true);
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  {
    ScopedContext scope(ctx);
    ctx.set_enabled(false);
    // Root on, context off: the installed context's flag wins.
    EXPECT_FALSE(enabled());
  }
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
  EXPECT_TRUE(root_.spans().empty());
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
  EXPECT_EQ(root_.counters().count("iters"), 0u);
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
  EXPECT_EQ(root_.counters().count("nested"), 0u);
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
  EXPECT_EQ(root_.counters().count("mine"), 0u);
}

TEST_F(ContextEvents, EmitFollowsTheInstalledContext) {
  EventLog root_log;
  events::swap_log(&root_log);
  Context ctx;
  {
    ScopedContext scope(ctx);
    // A context without a sink drops events — it must not leak them into
    // the root log of some other run.
    EXPECT_FALSE(events::enabled());
    events::emit("dropped", {});
    EXPECT_EQ(root_log.size(), 0u);

    EventLog& mine = ctx.make_event_log();
    EXPECT_TRUE(events::enabled());
    events::emit("scoped", {{"v", 1.0}});
    EXPECT_EQ(mine.size(), 1u);
    EXPECT_EQ(root_log.size(), 0u);
  }
  events::emit("root", {});
  EXPECT_EQ(root_log.size(), 1u);
  EXPECT_EQ(ctx.event_log()->size(), 1u);
  events::swap_log(nullptr);
}

TEST_F(ContextEvents, ClocksArePinnedAtInstall) {
  // swap_log pins the then-current (root) registry...
  EventLog root_log;
  events::swap_log(&root_log);
  EXPECT_EQ(root_log.clock(), &root_);
  Registry other;
  Registry* prev = swap_registry(&other);
  events::emit("tick", {});  // still timestamped off root_'s epoch
  EXPECT_EQ(root_log.clock(), &root_);
  swap_registry(prev);
  events::swap_log(nullptr);

  // ...and a context pins its own registry into the logs it installs.
  Context ctx;
  EventLog& log = ctx.make_event_log();
  EXPECT_EQ(log.clock(), &ctx.registry());
  EventLog borrowed;
  ctx.set_event_log(&borrowed);
  EXPECT_EQ(borrowed.clock(), &ctx.registry());
}

TEST_F(ContextSampler, SamplerKeepsItsPinnedRegistryAcrossRootSwaps) {
  PhaseSampler sampler(nullptr, 500);
  sampler.start();  // pins the current root registry (root_)
  Registry other;
  Registry* prev = swap_registry(&other);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.stop();
  swap_registry(prev);
  EXPECT_EQ(other.series().count("mem.rss_bytes"), 0u);
  const auto series = root_.series();
  ASSERT_EQ(series.count("mem.rss_bytes"), 1u);
  EXPECT_FALSE(series.at("mem.rss_bytes").empty());
}

#if defined(XRING_PROFILE_ALLOC)
TEST_F(ContextRouting, AllocationDeltasChargeTheInstalledContextsSpan) {
  ASSERT_TRUE(memprof::alloc_tracking());
  Context ctx;
  {
    ScopedContext scope(ctx);
    Span span("alloc_here");
    volatile char* block = new char[1 << 20];
    block[0] = 1;
    delete[] block;
  }
  const auto spans = ctx.registry().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "alloc_here");
  EXPECT_GE(spans[0].alloc_bytes, 1 << 20);
  EXPECT_TRUE(root_.spans().empty());
}
#endif

// ---------------------------------------------------------------------------
// Whole-pipeline isolation: the acceptance test of the context layer.

/// The per-context metric view the repo's own CI gates exactly (rel
/// tolerance 0): quality-class keys of the lp/mapping/milp/ring
/// subsystems. Solver-internal trajectory counters, scheduling telemetry
/// (`par.*`, `milp.spec_*`), and time-like keys are excluded — the same
/// exclusions bench_compare applies.
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
  Registry sentinel;
  Registry* prev = swap_registry(&sentinel);
  std::map<std::string, double> a, b;
  std::thread ta([&] { a = quality_view(synthesize_scoped(8)); });
  std::thread tb([&] { b = quality_view(synthesize_scoped(8)); });
  ta.join();
  tb.join();
  swap_registry(prev);
  par::set_jobs(0);

  // Bitwise-equal quality metrics: no lost updates, no cross-charging.
  EXPECT_EQ(a, serial);
  EXPECT_EQ(b, serial);
  // And nothing bled into the root registry while the runs were scoped.
  EXPECT_EQ(sentinel.counters().count("milp.solves"), 0u);
  EXPECT_TRUE(sentinel.spans().empty());
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
