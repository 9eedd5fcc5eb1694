// Resource-attribution profiling: the RSS readings (memprof), the phase
// sampler's folded stacks and RSS-by-span alignment, and the solver
// progress event stream.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/memprof.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "par/pool.hpp"
#include "xring/synthesizer.hpp"

namespace xring {
namespace {

/// Records one test into a fresh registry through a context installed on
/// the test thread for the fixture's lifetime.
class ObsProfileTest : public ::testing::Test {
 protected:
  obs::Registry reg_;
  obs::Context ctx_{&reg_};
  obs::ScopedContext scope_{ctx_};
};

// --- memprof -------------------------------------------------------------

TEST(MemProf, RssReadingsArePositiveAndOrdered) {
  const long long rss = obs::memprof::rss_bytes();
  const long long peak = obs::memprof::peak_rss_bytes();
  EXPECT_GT(rss, 0);
  EXPECT_GT(peak, 0);
  // The high-water mark tracks the current footprint, but the two kernel
  // sources (getrusage vs /proc/self/statm) count shared pages differently
  // — allow a generous accounting gap rather than asserting strict order.
  EXPECT_GE(peak + (1 << 20), rss);
}

// --- phase sampler -------------------------------------------------------

TEST_F(ObsProfileTest, SamplerRecordsRssSeriesAndFoldedStacks) {
  obs::set_thread_label("test.main");
  obs::PhaseSampler sampler(&reg_, 500);
  sampler.start();
  {
    obs::Span outer("phase_a");
    obs::Span inner("phase_b");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  sampler.stop();
  EXPECT_GE(sampler.samples(), 1);

  // The RSS series exists, is positive and timestamps are monotone.
  const auto series = reg_.series();
  const auto it = series.find("mem.rss_bytes");
  ASSERT_NE(it, series.end());
  ASSERT_FALSE(it->second.empty());
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    EXPECT_GT(it->second[i].value, 0.0);
    if (i > 0) {
      EXPECT_GE(it->second[i].t_us, it->second[i - 1].t_us);
    }
  }

  // The folded stacks carry the open-span path under the thread label.
  const auto counts = sampler.folded_counts();
  ASSERT_FALSE(counts.empty());
  long long nested = 0;
  for (const auto& [path, count] : counts) {
    EXPECT_GT(count, 0);
    if (path == "test.main;phase_a;phase_b") nested += count;
  }
  EXPECT_GT(nested, 0) << sampler.folded();

  // Gauges published at stop: current and peak RSS.
  const auto gauges = reg_.gauges();
  EXPECT_GT(gauges.at("mem.rss_bytes"), 0.0);
  EXPECT_GT(gauges.at("mem.peak_rss_bytes"), 0.0);
}

TEST_F(ObsProfileTest, FoldedOutputIsSortedAndParsable) {
  obs::PhaseSampler sampler(&reg_, 500);
  sampler.start();
  {
    obs::Span s("folded_phase");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  sampler.stop();
  const std::string folded = sampler.folded();
  ASSERT_FALSE(folded.empty());
  std::istringstream in(folded);
  std::string line, prev_path;
  while (std::getline(in, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string path = line.substr(0, space);
    EXPECT_GT(std::stoll(line.substr(space + 1)), 0) << line;
    EXPECT_LT(prev_path, path) << "folded paths must be sorted and unique";
    prev_path = path;
  }
}

TEST_F(ObsProfileTest, RssBySpanAlignsSamplesToSpanIntervals) {
  obs::PhaseSampler sampler(&reg_, 500);
  sampler.start();
  {
    obs::Span s("sampled_span");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  sampler.stop();
  const auto rss = obs::rss_by_span(reg_);
  const auto it = rss.find("sampled_span");
  ASSERT_NE(it, rss.end());
  EXPECT_GT(it->second.samples, 0);
  EXPECT_GT(it->second.peak_bytes, 0.0);
  EXPECT_GT(it->second.start_bytes, 0.0);
  EXPECT_GE(it->second.peak_bytes, it->second.start_bytes - 1.0);
}

TEST_F(ObsProfileTest, OpenSpanPathsSeeLiveSpansAcrossThreads) {
  obs::Span here("observer_root");
  std::vector<obs::ThreadPath> seen;
  std::thread worker([&] {
    obs::ScopedContext scope(ctx_);
    obs::set_thread_label("test.worker");
    obs::Span deep("worker_span");
    seen = obs::open_span_paths();
  });
  worker.join();
  bool found_worker = false, found_root = false;
  for (const obs::ThreadPath& p : seen) {
    std::string joined = p.label;
    for (const char* n : p.names) {
      joined += ';';
      joined += n;
    }
    if (joined == "test.worker;worker_span") found_worker = true;
    for (const char* n : p.names)
      if (std::string(n) == "observer_root") found_root = true;
  }
  EXPECT_TRUE(found_worker);
  EXPECT_TRUE(found_root);
}

// --- event log -----------------------------------------------------------

TEST_F(ObsProfileTest, EventLogRecordsJsonlWithTimestamps) {
  obs::EventLog& log = ctx_.make_event_log();
  log.record("test.event", {{"value", 3.5}, {"count", 2.0}});
  log.record("test.nan", {{"gap", std::nan("")}});
  EXPECT_EQ(log.size(), 2u);
  std::istringstream in(log.jsonl());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const obs::JsonValue v = obs::parse_json(line);
    ASSERT_EQ(v.kind, obs::JsonValue::Kind::kObject) << line;
    ASSERT_NE(v.find("t_us"), nullptr);
    ASSERT_NE(v.find("kind"), nullptr);
  }
  EXPECT_EQ(lines, 2);
  // NaN fields serialize as JSON null, like the metrics exporters.
  EXPECT_NE(log.jsonl().find("\"gap\":null"), std::string::npos)
      << log.jsonl();
}

TEST_F(ObsProfileTest, EmitIsSilentWithoutALogAndRoutedWithOne) {
  EXPECT_FALSE(obs::events::enabled());
  obs::events::emit("dropped.event", {{"x", 1.0}});  // must not crash
  obs::EventLog& log = ctx_.make_event_log();
  EXPECT_TRUE(obs::events::enabled());
  obs::events::emit("routed.event", {{"x", 1.0}});
  {
    const obs::ScopedContext none(nullptr);
    EXPECT_FALSE(obs::events::enabled());
    obs::events::emit("dropped.event", {{"x", 2.0}});
  }
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log.jsonl().find("routed.event"), std::string::npos);
}

/// Small set-cover MILP: enough search to emit incumbent and done events.
milp::Model cover_model() {
  milp::Model m;
  const int a = m.add_binary(5), b = m.add_binary(4), c = m.add_binary(3),
            d = m.add_binary(6);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, milp::Sense::kGe, 1.0);
  m.add_constraint({{b, 1.0}, {c, 1.0}}, milp::Sense::kGe, 1.0);
  m.add_constraint({{a, 1.0}, {d, 1.0}}, milp::Sense::kGe, 1.0);
  return m;
}

TEST_F(ObsProfileTest, BranchAndBoundEmitsProgressEvents) {
  const obs::EventLog& log = ctx_.make_event_log();
  const milp::MipResult result = milp::solve(cover_model());
  ASSERT_EQ(result.status, milp::MipStatus::kOptimal);

  int incumbents = 0, done = 0;
  double final_incumbent = std::nan("");
  std::istringstream in(log.jsonl());
  std::string line;
  while (std::getline(in, line)) {
    const obs::JsonValue v = obs::parse_json(line);
    const std::string kind = v.find("kind")->string;
    if (kind == "milp.incumbent") ++incumbents;
    if (kind == "milp.done") {
      ++done;
      ASSERT_NE(v.find("incumbent"), nullptr);
      final_incumbent = v.find("incumbent")->number;
      ASSERT_NE(v.find("open"), nullptr);
      EXPECT_EQ(v.find("open")->number, 0.0);
    }
  }
  EXPECT_GE(incumbents, 1);
  EXPECT_EQ(done, 1);
  // The stream's final incumbent is the solver's returned objective.
  EXPECT_DOUBLE_EQ(final_incumbent, result.objective);
}

TEST_F(ObsProfileTest, EventStreamIsIdenticalAcrossThreadCounts) {
  auto run = [&](int jobs) {
    par::set_jobs(jobs);
    obs::Context ctx;
    const obs::ScopedContext scope(ctx);
    const obs::EventLog& log = ctx.make_event_log();
    (void)milp::solve(cover_model());
    par::set_jobs(0);
    // Strip timestamps: wall clock differs, the event sequence must not.
    std::ostringstream stripped;
    std::istringstream in(log.jsonl());
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t kind = line.find("\"kind\"");
      if (kind != std::string::npos) stripped << line.substr(kind) << '\n';
    }
    return stripped.str();
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_EQ(serial, parallel);
}

TEST_F(ObsProfileTest, ProgressLineRendersAndTerminates) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::EventLog& log = ctx_.make_event_log();
  log.enable_progress(sink, 0.0);
  log.record("milp.node", {{"nodes", 3.0}, {"open", 2.0}});
  log.record("milp.done", {{"nodes", 5.0}, {"open", 0.0}});
  log.finish_progress();
  std::fflush(sink);
  std::rewind(sink);
  std::string contents;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, sink)) > 0)
    contents.append(buf, got);
  std::fclose(sink);
  EXPECT_NE(contents.find("[progress]"), std::string::npos) << contents;
  EXPECT_NE(contents.find("nodes=5"), std::string::npos) << contents;
  EXPECT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
}

// --- profiling must not perturb results ----------------------------------

TEST(ObsProfileInvariance, ProfiledAndUnprofiledSynthesesAgreeExactly) {
  const netlist::Floorplan fp = netlist::Floorplan::grid(4, 4, 2000);
  SynthesisOptions opt;
  opt.ring.use_milp = false;

  const SynthesisResult plain = Synthesizer(fp).run(opt);

  obs::Context ctx;
  const obs::ScopedContext scope(ctx);
  obs::PhaseSampler sampler(&ctx.registry(), 500);
  ctx.make_event_log();
  sampler.start();
  const SynthesisResult profiled = Synthesizer(fp).run(opt);
  sampler.stop();

  EXPECT_EQ(plain.metrics.wavelengths, profiled.metrics.wavelengths);
  EXPECT_EQ(plain.metrics.waveguides, profiled.metrics.waveguides);
  EXPECT_EQ(plain.metrics.noisy_signals, profiled.metrics.noisy_signals);
  EXPECT_EQ(plain.metrics.il_star_worst_db, profiled.metrics.il_star_worst_db);
  EXPECT_EQ(plain.metrics.total_power_w, profiled.metrics.total_power_w);
}

}  // namespace
}  // namespace xring
