// The cross-run layer: metric gate classification, run.json and flat
// BENCH_*.json parsing, the store's record/list/load
// lifecycle, span-tree aggregation, A/B diffs under the gate, and
// aggregation across runs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/runstore.hpp"

namespace xring::obs {
namespace {

namespace fs = std::filesystem;

/// A unique empty store root per test, removed on teardown.
class RunStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (fs::temp_directory_path() /
             (std::string("xring_runstore_") + info->name()))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

TEST(RunstoreClassify, MatchesTheBenchCompareRules) {
  // Precedence: ignored beats everything (bench repeat counts, raw
  // timestamps), then resource, time-like, quality.
  EXPECT_EQ(classify_metric("bench.iterations"), MetricClass::kIgnored);
  EXPECT_EQ(classify_metric("events.first.t_us"), MetricClass::kIgnored);
  EXPECT_EQ(classify_metric("mem.rss_bytes.last"), MetricClass::kResource);
  EXPECT_EQ(classify_metric("events.count"), MetricClass::kResource);
  EXPECT_EQ(classify_metric("par.steals"), MetricClass::kResource);
  // The solver's work counters are jobs-invariant (the B&B is serial) and
  // gated exactly, like the answers they lead to.
  EXPECT_EQ(classify_metric("lp.pivots"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("lp.iterations.count"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("lp.ftran_density.mean"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("lp.refactorizations"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("lp.eta_nnz"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("milp.warm_pivots"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("milp.cold_solves"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("milp.cuts_added"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("milp.certified_gap"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("mapping.candidates_memoized"),
            MetricClass::kQuality);
  // The Step-3 probe counters are jobs-invariant and gated exactly.
  EXPECT_EQ(classify_metric("mapping.fits_probes"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("mapping.fits_summary_hits"),
            MetricClass::kQuality);
  EXPECT_EQ(classify_metric("mapping.reloc_attempts"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("span.synth.total_s"), MetricClass::kTimeLike);
  EXPECT_EQ(classify_metric("solve.real_time_ns"), MetricClass::kTimeLike);
  EXPECT_EQ(classify_metric("synthesis.seconds"), MetricClass::kTimeLike);
  EXPECT_EQ(classify_metric("table1.xring.16.T"), MetricClass::kTimeLike);
  EXPECT_EQ(classify_metric("milp.nodes"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("ring.length_mm"), MetricClass::kQuality);
  EXPECT_EQ(classify_metric("table1.xring.16.IL"), MetricClass::kQuality);
}

TEST(RunstoreClassify, GateFormulasMatchBenchCompare) {
  const GateOptions gate;  // 3.0x time, 1e-6 relative
  // Quality: tight both directions, with the absolute 1e-9 slack.
  EXPECT_FALSE(metric_regressed("ring.length_mm", 100.0, 100.0, gate));
  EXPECT_FALSE(metric_regressed("ring.length_mm", 100.0, 100.00001, gate));
  EXPECT_TRUE(metric_regressed("ring.length_mm", 100.0, 100.1, gate));
  EXPECT_TRUE(metric_regressed("ring.length_mm", 100.0, 99.9, gate));
  // Time-like: only growth fails, and sub-floor baselines use the floor.
  EXPECT_EQ(time_noise_floor("solve.real_time_ns"), 1e6);
  EXPECT_EQ(time_noise_floor("span.synth.total_s"), 0.1);
  EXPECT_FALSE(metric_regressed("span.synth.total_s", 1.0, 2.9, gate));
  EXPECT_TRUE(metric_regressed("span.synth.total_s", 1.0, 3.1, gate));
  EXPECT_FALSE(metric_regressed("span.synth.total_s", 10.0, 1.0, gate));
  EXPECT_FALSE(metric_regressed("span.tiny.total_s", 0.001, 0.2, gate));
  EXPECT_TRUE(metric_regressed("span.tiny.total_s", 0.001, 0.5, gate));
  // null (NaN) compares equal only to null.
  const double nan = std::nan("");
  EXPECT_FALSE(metric_regressed("ring.snr_db", nan, nan, gate));
  EXPECT_TRUE(metric_regressed("ring.snr_db", nan, 1.0, gate));
  EXPECT_TRUE(metric_regressed("ring.snr_db", 1.0, nan, gate));
  // Solver work counters are gated like any quality metric.
  EXPECT_TRUE(metric_regressed("lp.pivots", 10.0, 11.0, gate));
  // Never-gated classes.
  EXPECT_FALSE(metric_regressed("mem.rss_bytes.last", 1.0, 1e12, gate));
  EXPECT_FALSE(metric_regressed("bench.iterations", 1.0, 50.0, gate));
}

TEST(Runstore, RunRecordJsonRoundTrips) {
  RunRecord rec;
  rec.id = "run_a";
  rec.title = "synth \"8\" nodes";  // exercises escaping
  rec.unix_time = 1754700000.5;
  rec.environment = {{"jobs", "4"}, {"config_hash", "00ff"}};
  rec.metrics = {{"ring.length_mm", 123.25},
                 {"milp.nodes", 42.0},
                 {"ring.snr_db", std::nan("")}};
  rec.span_tree = {{"synth", 1, 1.5}, {"synth;mapping", 1, 0.5}};
  rec.artifacts = {{"trace", "trace.json"}};

  const RunRecord back = parse_run_record(run_record_json(rec));
  EXPECT_EQ(back.schema, "xring.run/1");
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.title, rec.title);
  EXPECT_DOUBLE_EQ(back.unix_time, rec.unix_time);
  EXPECT_EQ(back.environment, rec.environment);
  EXPECT_EQ(back.artifacts, rec.artifacts);
  ASSERT_EQ(back.metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(back.metrics.at("ring.length_mm"), 123.25);
  EXPECT_TRUE(std::isnan(back.metrics.at("ring.snr_db")));  // null round trip
  ASSERT_EQ(back.span_tree.size(), 2u);
  EXPECT_EQ(back.span_tree[1].path, "synth;mapping");
  EXPECT_DOUBLE_EQ(back.span_tree[1].total_s, 0.5);

  EXPECT_THROW(parse_run_record("{\"schema\": \"other/1\"}"),
               std::invalid_argument);
  EXPECT_THROW(parse_run_record("[]"), std::invalid_argument);
}

TEST(Runstore, SpanTreeParentsByDepthAndContainment) {
  Registry reg;
  {
    Context ctx(&reg);
    ScopedContext scope(ctx);
    Span synth("synth");
    {
      Span mapping("mapping");
      { Span solve("solve"); }
      { Span solve("solve"); }
    }
    { Span pdn("pdn"); }
  }

  const auto tree = span_tree(reg);
  std::map<std::string, long long> counts;
  for (const auto& node : tree) counts[node.path] = node.count;
  EXPECT_EQ(counts.at("synth"), 1);
  EXPECT_EQ(counts.at("synth;mapping"), 1);
  EXPECT_EQ(counts.at("synth;mapping;solve"), 2);
  EXPECT_EQ(counts.at("synth;pdn"), 1);
  EXPECT_EQ(counts.size(), 4u);
}

TEST(Runstore, ConfigHashIsStableAndDiscriminates) {
  const std::string h = config_hash("nodes=8;wl=8");
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(h, config_hash("nodes=8;wl=8"));
  EXPECT_NE(h, config_hash("nodes=8;wl=16"));
}

TEST_F(RunStoreFixture, RecordListLoadLifecycle) {
  Registry reg;
  reg.counter("ring.crossings").add(0);
  reg.gauge("ring.length_mm").set(123.25);

  RunStore store(root_);
  RunRecordOptions opts;
  opts.title = "first";
  opts.artifacts = {{"metrics", "metrics.json"}};
  const std::string id_a = store.record(reg, opts);
  opts.title = "second";
  opts.id = "named_run";
  const std::string id_b = store.record(reg, opts);
  EXPECT_EQ(id_b, "named_run");
  EXPECT_NE(id_a, id_b);

  const auto entries = store.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, id_a);
  EXPECT_EQ(entries[0].title, "first");
  EXPECT_EQ(entries[1].id, "named_run");

  // Load by id, by run-directory path, and by run.json path.
  for (const std::string& ref :
       {id_a, (fs::path(root_) / id_a).string(),
        (fs::path(root_) / id_a / "run.json").string()}) {
    const RunRecord rec = store.load(ref);
    EXPECT_EQ(rec.id, id_a) << ref;
    EXPECT_DOUBLE_EQ(rec.metrics.at("ring.length_mm"), 123.25) << ref;
    EXPECT_DOUBLE_EQ(rec.metrics.at("ring.crossings"), 0.0) << ref;
  }
  EXPECT_THROW(store.load("no_such_run"), std::exception);

  // Generated ids are unique even within one second.
  std::set<std::string> ids;
  RunRecordOptions fresh;
  for (int i = 0; i < 5; ++i) ids.insert(store.record(reg, fresh));
  EXPECT_EQ(ids.size(), 5u);
}

TEST_F(RunStoreFixture, LoadsFlatMetricsJsonReports) {
  // A BENCH_*.json report has no schema: the same reader as
  // metrics_from_json fills the record's metrics and nothing else.
  const RunRecord flat =
      parse_run_record("{\"table1.n8.XRing.P\": 1.5, \"ring.snr\": null}");
  ASSERT_EQ(flat.metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(flat.metrics.at("table1.n8.XRing.P"), 1.5);
  EXPECT_TRUE(std::isnan(flat.metrics.at("ring.snr")));
  EXPECT_TRUE(flat.span_tree.empty());
  EXPECT_THROW(parse_run_record("{\"nested\": {\"a\": 1}}"),
               std::invalid_argument);

  // Loaded by path, the report is named after that path.
  fs::create_directories(root_);
  const std::string path = (fs::path(root_) / "BENCH_table1.json").string();
  std::ofstream(path) << "{\"table1.n8.XRing.P\": 1.5}";
  const RunRecord rec = RunStore(root_).load(path);
  EXPECT_EQ(rec.id, path);
  EXPECT_DOUBLE_EQ(rec.metrics.at("table1.n8.XRing.P"), 1.5);
}

RunRecord make_record(const std::string& id,
                      std::map<std::string, double> metrics) {
  RunRecord rec;
  rec.id = id;
  rec.metrics = std::move(metrics);
  return rec;
}

TEST(Runstore, DiffAppliesTheGatePerClass) {
  const RunRecord a = make_record("a", {{"ring.length_mm", 100.0},
                                        {"milp.nodes", 40.0},
                                        {"lp.pivots", 500.0},
                                        {"mem.rss_bytes.last", 1e6},
                                        {"span.synth.total_s", 1.0},
                                        {"only.in.a", 1.0}});
  const RunRecord b = make_record("b", {{"ring.length_mm", 101.0},
                                        {"milp.nodes", 40.0},
                                        {"lp.pivots", 900.0},
                                        {"mem.rss_bytes.last", 5e6},
                                        {"span.synth.total_s", 4.0},
                                        {"only.in.b", 1.0}});
  const RunDiff d = diff_runs(a, b);
  // ring.length_mm, milp.nodes, lp.pivots, span time
  EXPECT_EQ(d.compared, 4);
  EXPECT_EQ(d.skipped, 1);  // mem.rss
  EXPECT_EQ(d.one_sided, 2);
  // Length and pivots changed, span grew 4x, and B lacks A's only.in.a.
  EXPECT_EQ(d.regressions, 4);
  EXPECT_EQ(d.missing, 1);
  for (const MetricDelta& md : d.deltas) {
    if (md.name == "ring.length_mm" || md.name == "lp.pivots" ||
        md.name == "span.synth.total_s" || md.name == "only.in.a") {
      EXPECT_TRUE(md.regressed) << md.name;
    } else {
      EXPECT_FALSE(md.regressed) << md.name;
    }
  }

  // A run diffed against itself is clean.
  const RunDiff same = diff_runs(a, a);
  EXPECT_EQ(same.regressions, 0);
  EXPECT_EQ(same.one_sided, 0);

  // Prefix restriction narrows both the gate and the one-sided accounting.
  const RunDiff scoped = diff_runs(a, b, GateOptions{}, "ring.");
  EXPECT_EQ(scoped.compared, 1);
  EXPECT_EQ(scoped.one_sided, 0);
  EXPECT_EQ(scoped.regressions, 1);

  // A wider quality tolerance clears the 1% length drift, not the 80%
  // pivot growth nor the missing key.
  GateOptions loose;
  loose.rel_tolerance = 0.05;
  EXPECT_EQ(diff_runs(a, b, loose).regressions, 3);  // pivots, span, missing
}

TEST(Runstore, DiffFailsABaselineQualityKeyTheCandidateLacks) {
  // A Table run that lost a cell must fail the gate. A time key the
  // candidate lacks and telemetry only the candidate records stay
  // informational.
  const RunRecord a = make_record("a", {{"table2.n32.XRing.P", 1.5},
                                        {"table2.n8.XRing.P", 1.0},
                                        {"table2.n32.XRing.T", 0.5}});
  const RunRecord b = make_record("b", {{"table2.n8.XRing.P", 1.0},
                                        {"par.tasks", 7.0}});
  const RunDiff d = diff_runs(a, b);
  EXPECT_EQ(d.compared, 1);
  EXPECT_EQ(d.one_sided, 3);
  EXPECT_EQ(d.regressions, 1);
  EXPECT_EQ(d.missing, 1);
  for (const MetricDelta& md : d.deltas) {
    EXPECT_EQ(md.regressed, md.name == "table2.n32.XRing.P") << md.name;
  }

  const JsonValue doc = parse_json(run_diff_json(d));
  EXPECT_EQ(doc.find("summary")->find("missing")->number, 1.0);
  for (const JsonValue& item : doc.find("deltas")->array) {
    const bool lost = item.find("name")->string == "table2.n32.XRing.P";
    EXPECT_EQ(item.find("missing")->boolean, lost);
    if (lost) {
      EXPECT_EQ(item.find("b")->kind, JsonValue::Kind::kNull);
    }
  }
  EXPECT_NE(run_diff_html(d).find("REGRESSION (missing)"), std::string::npos);

  // Keys only the candidate has never regress: B as the baseline gains
  // the cells back, and A records no `par.*` telemetry.
  const RunDiff gained = diff_runs(b, a);
  EXPECT_EQ(gained.regressions, 0);
  EXPECT_EQ(gained.missing, 0);
  EXPECT_EQ(gained.one_sided, 3);
}

TEST(Runstore, DiffReportsSerializeBothWays) {
  RunRecord a = make_record("a", {{"ring.length_mm", 100.0},
                                  {"mem.rss_bytes.last", 1e6}});
  RunRecord b = make_record("b", {{"ring.length_mm", 101.0},
                                  {"mem.rss_bytes.last", 2e6}});
  a.title = "baseline";
  b.title = "candidate";
  a.environment = {{"jobs", "4"}};
  b.environment = {{"jobs", "8"}};
  a.span_tree = {{"synth", 1, 1.0}, {"synth;mapping", 1, 0.25}};
  b.span_tree = {{"synth", 1, 2.0}, {"synth;opening", 1, 0.5}};
  const RunDiff d = diff_runs(a, b);

  const JsonValue doc = parse_json(run_diff_json(d));
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.find("a")->find("id")->string, "a");
  EXPECT_EQ(doc.find("summary")->find("regressions")->number, 1.0);
  ASSERT_NE(doc.find("deltas"), nullptr);
  EXPECT_EQ(doc.find("deltas")->array.size(), d.deltas.size());
  bool found = false;
  for (const JsonValue& item : doc.find("deltas")->array) {
    if (item.find("name")->string != "ring.length_mm") continue;
    found = true;
    EXPECT_EQ(item.find("class")->string, "quality");
    EXPECT_TRUE(item.find("regressed")->boolean);
  }
  EXPECT_TRUE(found);

  const std::string html = run_diff_html(d);
  EXPECT_NE(html.find("id=\"environment\""), std::string::npos);
  EXPECT_NE(html.find("id=\"gated\""), std::string::npos);
  EXPECT_NE(html.find("id=\"spans\""), std::string::npos);
  EXPECT_NE(html.find("id=\"memory\""), std::string::npos);
  EXPECT_NE(html.find("REGRESSION"), std::string::npos);
  EXPECT_NE(html.find("ring.length_mm"), std::string::npos);
  EXPECT_NE(html.find("synth;mapping"), std::string::npos)
      << "span paths feed the tree diff";
}

TEST_F(RunStoreFixture, AggregateComputesPerMetricStatistics) {
  RunStore store(root_);
  for (const double length : {100.0, 102.0, 104.0}) {
    Registry reg;
    reg.gauge("ring.length_mm").set(length);
    reg.gauge("other.metric").set(1.0);
    store.record(reg, {});
  }
  std::vector<RunRecord> runs;
  for (const auto& e : store.list()) runs.push_back(store.load(e.id));
  ASSERT_EQ(runs.size(), 3u);

  const auto stats = aggregate_runs(runs, "ring.");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "ring.length_mm");
  EXPECT_EQ(stats[0].count, 3);
  EXPECT_DOUBLE_EQ(stats[0].min, 100.0);
  EXPECT_DOUBLE_EQ(stats[0].max, 104.0);
  EXPECT_DOUBLE_EQ(stats[0].mean(), 102.0);
  EXPECT_GE(aggregate_runs(runs).size(), 2u);
}

}  // namespace
}  // namespace xring::obs
