// Solver and pipeline telemetry: the MILP branch & bound, the LP simplex
// and the full Synthesizer must report their work into the obs registry,
// and the figures must agree with the results they return.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "milp/branch_and_bound.hpp"
#include "obs/context.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "xring/synthesizer.hpp"

namespace xring {
namespace {

/// Records one test into a fresh registry through a context installed on
/// the test thread for the fixture's lifetime.
class ObsSolverTest : public ::testing::Test {
 protected:
  obs::Registry reg_;
  obs::Context ctx_{&reg_};
  obs::ScopedContext scope_{ctx_};
};

/// A small knapsack-flavored minimization with a lazy no-good handler, so
/// the search explores several nodes, improves its incumbent at least once
/// and adds lazy cuts.
milp::Model cover_model() {
  // min 5a + 4b + 3c + 6d  s.t.  a+b >= 1, b+c >= 1, a+d >= 1.
  milp::Model m;
  const int a = m.add_binary(5), b = m.add_binary(4), c = m.add_binary(3),
            d = m.add_binary(6);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, milp::Sense::kGe, 1.0);
  m.add_constraint({{b, 1.0}, {c, 1.0}}, milp::Sense::kGe, 1.0);
  m.add_constraint({{a, 1.0}, {d, 1.0}}, milp::Sense::kGe, 1.0);
  return m;
}

TEST_F(ObsSolverTest, MilpCountersMatchMipResult) {
  const milp::Model m = cover_model();

  milp::BnbOptions opt;
  int handler_calls = 0;
  // Lazy handler: rejects any candidate using fewer than three variables.
  // The unconstrained optimum ({a, c}, cost 8) violates it, so the search
  // must add at least one cut and settle on a three-variable cover.
  opt.lazy_handler = [&](const std::vector<double>& x) {
    ++handler_calls;
    std::vector<milp::Constraint> cuts;
    if (x[0] + x[1] + x[2] + x[3] < 3.0 - 1e-6) {
      cuts.push_back(milp::Constraint{
          {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}}, milp::Sense::kGe, 3.0});
    }
    return cuts;
  };

  const milp::MipResult r = milp::solve(m, opt);
  ASSERT_EQ(r.status, milp::MipStatus::kOptimal);
  EXPECT_GT(handler_calls, 0);
  EXPECT_GT(r.lazy_constraints_added, 0);

  const auto counters = reg_.counters();
  ASSERT_TRUE(counters.count("milp.nodes"));
  EXPECT_GE(r.nodes, 1);
  EXPECT_EQ(counters.at("milp.nodes"), r.nodes);
  ASSERT_TRUE(counters.count("milp.lazy_cuts"));
  EXPECT_EQ(counters.at("milp.lazy_cuts"), r.lazy_constraints_added);
  EXPECT_EQ(counters.at("milp.solves"), 1);

  // The simplex ran under the solver and reported pivots.
  ASSERT_TRUE(counters.count("lp.pivots"));
  EXPECT_GT(counters.at("lp.pivots"), 0);
  EXPECT_EQ(counters.at("lp.solves"),
            static_cast<long long>(reg_.spans().size() -
                                   1));  // all spans but milp.solve are LP
}

TEST_F(ObsSolverTest, IncumbentTimelineIsMonotoneAndEndsAtOptimum) {
  const milp::MipResult r = milp::solve(cover_model());
  ASSERT_EQ(r.status, milp::MipStatus::kOptimal);

  const auto series = reg_.series();
  ASSERT_TRUE(series.count("milp.incumbent"));
  const std::vector<obs::SeriesPoint>& timeline = series.at("milp.incumbent");
  ASSERT_GE(timeline.size(), 1u);
  // Minimization: every new incumbent improves, timestamps advance.
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LT(timeline[i].value, timeline[i - 1].value);
    EXPECT_GE(timeline[i].t_us, timeline[i - 1].t_us);
  }
  EXPECT_NEAR(timeline.back().value, r.objective, 1e-6);
  EXPECT_EQ(reg_.counters().at("milp.incumbents"),
            static_cast<long long>(timeline.size()));
}

TEST_F(ObsSolverTest, WarmStartSeedsTheTimeline) {
  milp::Model m = cover_model();
  milp::BnbOptions opt;
  opt.warm_start = std::vector<double>{1.0, 1.0, 1.0, 1.0};  // cost 18
  const milp::MipResult r = milp::solve(m, opt);
  ASSERT_EQ(r.status, milp::MipStatus::kOptimal);

  const auto timeline = reg_.series().at("milp.incumbent");
  ASSERT_GE(timeline.size(), 2u);  // the seed, then at least one improvement
  EXPECT_NEAR(timeline.front().value, 18.0, 1e-6);
  EXPECT_NEAR(timeline.back().value, r.objective, 1e-6);
}

TEST_F(ObsSolverTest, SynthesisSpanTreeCoversTheFourSteps) {
  const auto fp = netlist::Floorplan::standard(8);
  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run({});

  const std::vector<obs::SpanEvent> spans = reg_.spans();
  std::set<std::string> names;
  for (const obs::SpanEvent& ev : spans) names.insert(ev.name);
  for (const char* required :
       {"synth", "ring_construction", "milp.solve", "lp.solve", "shortcuts",
        "mapping", "opening", "pdn", "evaluate"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }

  // The root span closes last and encloses every other span in time. Span
  // depth is per thread (a span opened on a pool worker starts at depth 0),
  // so only spans on the root's thread must nest below it.
  const obs::SpanEvent& root = spans.back();
  EXPECT_EQ(root.name, "synth");
  EXPECT_EQ(root.depth, 0);
  for (const obs::SpanEvent& ev : spans) {
    if (ev.name == "synth") continue;
    EXPECT_GE(ev.start_us, root.start_us - 1.0) << ev.name;
    EXPECT_LE(ev.start_us + ev.dur_us, root.start_us + root.dur_us + 1.0)
        << ev.name;
    if (ev.thread_id == root.thread_id) {
      EXPECT_GT(ev.depth, 0) << ev.name;
    }
  }

  // `seconds` is derived from the root span.
  EXPECT_NEAR(r.seconds, root.dur_us * 1e-6, 0.05);

  // Pipeline metrics arrived alongside the spans.
  const auto flat = reg_.flatten();
  EXPECT_GE(flat.at("milp.nodes"), 1.0);
  EXPECT_GT(flat.at("lp.pivots"), 0.0);
  EXPECT_GT(flat.at("mapping.wavelengths_used"), 0.0);
  EXPECT_GT(flat.at("mapping.openings_inserted"), 0.0);
  EXPECT_GT(flat.at("span.synth.total_s"), 0.0);
}

TEST_F(ObsSolverTest, RunWithRingChargesRingTimeIntoSeconds) {
  const auto fp = netlist::Floorplan::standard(8);
  const Synthesizer synth(fp);
  const auto ring = ring::build_ring(fp, synth.oracle(), {});

  const SynthesisResult direct = synth.run({});
  const SynthesisResult reused = synth.run_with_ring({}, ring);
  // Both entry points report full Step 1-4 synthesis times: the reused-ring
  // path charges the prebuilt ring's build time.
  EXPECT_GE(reused.seconds, ring.seconds);
  EXPECT_GT(direct.seconds, 0.0);
}

TEST_F(ObsSolverTest, SimulatorReportsFlitCounters) {
  const auto fp = netlist::Floorplan::standard(8);
  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run({});
  sim::SimOptions so;
  so.duration_us = 0.5;
  const sim::SimReport rep = sim::simulate(r.design, r.metrics, so);

  const auto counters = reg_.counters();
  EXPECT_EQ(counters.at("sim.runs"), 1);
  EXPECT_EQ(counters.at("sim.flits_delivered"), rep.total_flits);
  EXPECT_GE(counters.at("sim.flits_sent"), rep.total_flits);
  EXPECT_GT(counters.at("sim.slots"), 0);
}

TEST_F(ObsSolverTest, DisabledTracingStillReportsSeconds) {
  const obs::ScopedContext untraced(nullptr);
  const auto fp = netlist::Floorplan::standard(8);
  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run({});
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_TRUE(reg_.spans().empty());
  EXPECT_TRUE(reg_.flatten().empty());
}

}  // namespace
}  // namespace xring
