// Unit tests of the obs layer: span nesting and ordering, metric
// arithmetic, the no-context no-recording path, and the JSON/CSV
// exporter round trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "report/run_report.hpp"

namespace xring::obs {
namespace {

/// Records one test into a fresh registry: a context over `reg_` is
/// installed on the test thread for the fixture's lifetime, so tests never
/// leak state into each other.
class ObsFixture : public ::testing::Test {
 protected:
  Registry reg_;
  Context ctx_{&reg_};
  ScopedContext scope_{ctx_};
};

using ObsSpans = ObsFixture;
using ObsMetrics = ObsFixture;
using ObsExport = ObsFixture;

TEST_F(ObsSpans, RecordsNestedSpansWithDepthsAndContainment) {
  {
    Span outer("outer");
    {
      Span middle("middle");
      Span inner("inner");
    }
    Span sibling("sibling");
  }
  const std::vector<SpanEvent> spans = reg_.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Spans close innermost-first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "middle");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[3].name, "outer");
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_EQ(spans[3].depth, 0);
  // Wall-clock containment: children start no earlier and end no later than
  // the parent (tolerance for clock rounding).
  const SpanEvent& outer = spans[3];
  for (int child : {0, 1, 2}) {
    EXPECT_GE(spans[child].start_us, outer.start_us - 1.0);
    EXPECT_LE(spans[child].start_us + spans[child].dur_us,
              outer.start_us + outer.dur_us + 1.0);
  }
}

TEST_F(ObsSpans, CloseIsIdempotent) {
  Span span("once");
  span.close();
  span.close();
  EXPECT_EQ(reg_.spans().size(), 1u);
  EXPECT_GE(span.elapsed_seconds(), 0.0);  // still usable after close
}

TEST_F(ObsSpans, SpanAggregatesAppearInFlatten) {
  { Span a("step"); }
  { Span b("step"); }
  const auto flat = reg_.flatten();
  EXPECT_EQ(flat.at("span.step.count"), 2.0);
  EXPECT_GE(flat.at("span.step.total_s"), 0.0);
}

TEST_F(ObsMetrics, CounterArithmetic) {
  Counter& c = reg_.counter("hits");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(reg_.counters().at("hits"), 42);
  // Same name resolves to the same counter.
  reg_.counter("hits").add(8);
  EXPECT_EQ(c.value(), 50);
}

TEST_F(ObsMetrics, GaugeLastWriteWins) {
  reg_.gauge("level").set(3.5);
  reg_.gauge("level").set(-1.25);
  EXPECT_EQ(reg_.gauges().at("level"), -1.25);
}

TEST_F(ObsMetrics, HistogramStats) {
  Histogram& h = reg_.histogram("lat");
  for (const double v : {4.0, 1.0, 7.0, 2.0}) h.observe(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.sum, 14.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 7.0);
  EXPECT_EQ(s.mean(), 3.5);
  const auto flat = reg_.flatten();
  EXPECT_EQ(flat.at("lat.count"), 4.0);
  EXPECT_EQ(flat.at("lat.mean"), 3.5);
}

TEST_F(ObsMetrics, SeriesKeepsOrderAndTimestamps) {
  reg_.append_series("inc", 10.0);
  reg_.append_series("inc", 7.5);
  reg_.append_series("inc", 3.0);
  const auto series = reg_.series().at("inc");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].value, 10.0);
  EXPECT_EQ(series[2].value, 3.0);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].t_us, series[i - 1].t_us);
  }
  EXPECT_EQ(reg_.flatten().at("inc.last"), 3.0);
}

TEST_F(ObsMetrics, EmptyHistogramFlattensToCountOnly) {
  // An observed-but-empty histogram must not fabricate min/max/sum/mean
  // zeros that read as real observations; only .count=0 is emitted.
  reg_.histogram("never_observed");
  const auto flat = reg_.flatten();
  EXPECT_EQ(flat.at("never_observed.count"), 0.0);
  EXPECT_EQ(flat.count("never_observed.min"), 0u);
  EXPECT_EQ(flat.count("never_observed.max"), 0u);
  EXPECT_EQ(flat.count("never_observed.sum"), 0u);
  EXPECT_EQ(flat.count("never_observed.mean"), 0u);
}

TEST_F(ObsMetrics, SingleSampleHistogramStats) {
  reg_.histogram("one").observe(5.0);
  const auto flat = reg_.flatten();
  EXPECT_EQ(flat.at("one.count"), 1.0);
  EXPECT_EQ(flat.at("one.min"), 5.0);
  EXPECT_EQ(flat.at("one.max"), 5.0);
  EXPECT_EQ(flat.at("one.mean"), 5.0);
}

TEST_F(ObsMetrics, DiagnosticsRecordSeverityCodeAndContext) {
  diagnose(Severity::kError, "milp.infeasible", "no feasible tour",
           {{"nodes", "14"}});
  diagnose(Severity::kWarning, "mapping.wavelength_conflict", "overflow");
  const auto diags = reg_.diagnostics();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].code, "milp.infeasible");
  ASSERT_EQ(diags[0].context.size(), 1u);
  EXPECT_EQ(diags[0].context[0].first, "nodes");
  EXPECT_GE(diags[1].t_us, diags[0].t_us);
  // Severity tallies surface in flatten for the metrics exporters.
  const auto flat = reg_.flatten();
  EXPECT_EQ(flat.at("diag.error"), 1.0);
  EXPECT_EQ(flat.at("diag.warning"), 1.0);
  EXPECT_EQ(flat.count("diag.info"), 0u);
}

TEST(ObsDiagnostics, NotRecordedWhenDisabled) {
  Context ctx;  // never installed
  diagnose(Severity::kError, "code", "message");
  EXPECT_TRUE(ctx.registry().diagnostics().empty());
}

TEST_F(ObsMetrics, CountersAreThreadSafe) {
  constexpr int kThreads = 8, kPerThread = 10000;
  Counter& c = reg_.counter("shared");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsMetrics, SpansAreThreadSafe) {
  constexpr int kThreads = 4, kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      ScopedContext scope(ctx_);
      for (int i = 0; i < kPerThread; ++i) Span span("worker");
    });
  }
  for (std::thread& t : threads) t.join();
  const auto spans = reg_.spans();
  EXPECT_EQ(spans.size(), std::size_t{kThreads} * kPerThread);
  // Each thread nests independently: every span is a root on its thread.
  for (const SpanEvent& ev : spans) EXPECT_EQ(ev.depth, 0);
}

TEST(ObsDisabled, NothingIsRecorded) {
  // A context with an event log exists but is not installed on this
  // thread, so nothing may reach it.
  Context ctx;
  const EventLog& log = ctx.make_event_log();
  ASSERT_EQ(current_context(), nullptr);
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(events::enabled());
  {
    Span outer("outer");
    Span inner("inner");
    EXPECT_GE(outer.elapsed_seconds(), 0.0);  // timing still works
    diagnose(Severity::kError, "code", "message");
    events::emit("dropped", {{"x", 1.0}});
    // Instrumentation sites guard on enabled() before touching the
    // registry; mimic the pipeline's pattern.
    if (enabled()) registry().counter("milp.nodes").add(5);
  }
  EXPECT_THROW(registry(), std::logic_error);
  EXPECT_TRUE(ctx.registry().spans().empty());
  EXPECT_TRUE(ctx.registry().diagnostics().empty());
  EXPECT_TRUE(ctx.registry().flatten().empty());
  EXPECT_EQ(log.size(), 0u);
}

TEST(ObsDisabled, ReenablingResumesRecording) {
  Context ctx;
  {
    ScopedContext scope(ctx);
    Span s("first");
  }
  { Span s("off"); }
  {
    ScopedContext scope(ctx);
    Span s("again");
  }
  const auto spans = ctx.registry().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "first");
  EXPECT_EQ(spans[1].name, "again");
}

TEST_F(ObsExport, CsvRoundTrip) {
  reg_.counter("milp.nodes").add(17);
  reg_.gauge("mapping.wavelengths_used").set(9);
  reg_.histogram("lp.iterations").observe(12.0);
  reg_.append_series("milp.incumbent", -3.25);
  { Span s("synth"); }

  // A header line, then one `name,value` line per flattened entry, in
  // name order, with the values in the JSON exporters' number format.
  const std::string csv = metrics_csv(reg_);
  std::string expected = "name,value\n";
  for (const auto& [name, value] : reg_.flatten()) {
    expected += name + "," + json_num(value) + "\n";
  }
  EXPECT_EQ(csv, expected);
  EXPECT_NE(csv.find("\nmilp.nodes,17\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\nmilp.incumbent.last,-3.25\n"), std::string::npos)
      << csv;
}

TEST_F(ObsExport, MetricsJsonContainsEveryFlattenedEntry) {
  reg_.counter("milp.lazy_cuts").add(3);
  reg_.gauge("ring.crossings").set(0);
  const std::string json = metrics_json(reg_);
  EXPECT_NE(json.find("\"milp.lazy_cuts\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ring.crossings\": 0"), std::string::npos) << json;
}

TEST_F(ObsExport, TraceJsonHasOneCompleteEventPerSpan) {
  {
    Span outer("outer");
    Span inner("inner");
  }
  reg_.append_series("milp.incumbent", 5.0);
  const std::string json = trace_json(reg_);

  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"X\""), 2u);  // one complete event per span
  EXPECT_EQ(count("\"ph\":\"C\""), 1u);  // one counter event per series point
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Structurally sound: balanced braces/brackets (no strings in our output
  // contain either).
  EXPECT_EQ(count("{"), count("}"));
  EXPECT_EQ(count("["), count("]"));
}

TEST_F(ObsExport, WriteFailuresThrowInsteadOfTruncating) {
  // Opening an unwritable path fails up front ...
  EXPECT_THROW(write_metrics_json("/nonexistent-dir/metrics.json", reg_),
               std::runtime_error);
  // ... and a write that fails only once data flows (ENOSPC — /dev/full
  // accepts the open and rejects the flush, like a full disk) must also
  // surface, not silently truncate the artifact.
  if (std::ifstream("/dev/full").good()) {
    reg_.counter("some.metric").add(1);
    EXPECT_THROW(write_metrics_json("/dev/full", reg_), std::runtime_error);
  }
}

TEST_F(ObsExport, JsonEscapesSpecialCharacters) {
  reg_.gauge("weird\"name\\with\nescapes").set(1.0);
  const std::string json = metrics_json(reg_);
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nescapes"), std::string::npos)
      << json;
}

// --- Exporter round trips through the JSON parser ------------------------

TEST(ObsJsonParser, ParsesScalarsContainersAndRejectsGarbage) {
  const JsonValue v =
      parse_json("{\"a\": [1, -2.5e1, true, null], \"b\": {\"c\": \"x\"}}");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, -25.0);
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].kind, JsonValue::Kind::kNull);
  ASSERT_NE(v.find("b"), nullptr);
  ASSERT_NE(v.find("b")->find("c"), nullptr);
  EXPECT_EQ(v.find("b")->find("c")->string, "x");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(parse_json("{\"unterminated\": "), std::invalid_argument);
  EXPECT_THROW(parse_json("[1, 2] trailing"), std::invalid_argument);
  EXPECT_THROW(parse_json("nope"), std::invalid_argument);

  // Every JSON string escape; \u decodes to UTF-8, surrogate pairs combine.
  EXPECT_EQ(parse_json(R"("a\rb")").string, "a\rb");
  EXPECT_EQ(parse_json(R"("a\bb")").string, "a\bb");
  EXPECT_EQ(parse_json(R"("a\fb")").string, "a\fb");
  EXPECT_EQ(parse_json(R"("\"\\\/\n\t")").string, "\"\\/\n\t");
  EXPECT_EQ(parse_json(R"("\u0041\u000d")").string, "A\r");
  EXPECT_EQ(parse_json(R"("\u00e9")").string, "\xC3\xA9");
  EXPECT_EQ(parse_json(R"("\u20AC")").string, "\xE2\x82\xAC");
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").string, "\xF0\x9F\x98\x80");
  EXPECT_THROW(parse_json(R"("\uzzzz")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\u12")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\ud83d")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\ud83dx")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\ud83d\u0041")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\ude00")"), std::invalid_argument);
  EXPECT_THROW(parse_json(R"("\q")"), std::invalid_argument);
}

/// One "X" (complete-span) event parsed back from a Chrome trace.
struct ParsedSpan {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  double tid = 0.0;
};

std::vector<ParsedSpan> parsed_trace_spans(const std::string& json) {
  const JsonValue root = parse_json(json);
  EXPECT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* events = root.find("traceEvents");
  EXPECT_NE(events, nullptr);
  std::vector<ParsedSpan> out;
  for (const JsonValue& ev : events->array) {
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    ParsedSpan s;
    s.name = ev.find("name")->string;
    s.ts = ev.find("ts")->number;
    s.dur = ev.find("dur")->number;
    s.tid = ev.find("tid")->number;
    out.push_back(std::move(s));
  }
  return out;
}

TEST_F(ObsExport, TraceJsonParsesBackAndContainmentReconstructsHierarchy) {
  {
    Span outer("outer");
    {
      Span middle("middle");
      Span inner("inner");
    }
    Span sibling("sibling");
  }
  std::vector<ParsedSpan> spans = parsed_trace_spans(trace_json(reg_));
  ASSERT_EQ(spans.size(), 4u);
  auto by_name = [&](const char* name) -> const ParsedSpan& {
    for (const ParsedSpan& s : spans) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "missing span " << name;
    return spans.front();
  };
  const ParsedSpan& outer = by_name("outer");
  auto contains = [](const ParsedSpan& parent, const ParsedSpan& child) {
    return child.ts >= parent.ts - 1.0 &&
           child.ts + child.dur <= parent.ts + parent.dur + 1.0;
  };
  // ts/dur containment alone recovers the span tree: every other span nests
  // inside `outer`, `inner` inside `middle`, and the siblings are disjoint.
  EXPECT_TRUE(contains(outer, by_name("middle")));
  EXPECT_TRUE(contains(outer, by_name("inner")));
  EXPECT_TRUE(contains(outer, by_name("sibling")));
  EXPECT_TRUE(contains(by_name("middle"), by_name("inner")));
  const ParsedSpan& middle = by_name("middle");
  const ParsedSpan& sibling = by_name("sibling");
  EXPECT_GE(sibling.ts, middle.ts + middle.dur - 1.0);
}

TEST_F(ObsExport, TraceJsonRoundTripsUnderEightThreads) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      ScopedContext scope(ctx_);
      Span outer("t.outer");
      Span inner("t.inner");
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<ParsedSpan> spans = parsed_trace_spans(trace_json(reg_));
  ASSERT_EQ(spans.size(), 2u * kThreads);
  // Per thread id: exactly one outer and one inner, inner contained.
  std::map<double, std::vector<ParsedSpan>> by_tid;
  for (ParsedSpan& s : spans) by_tid[s.tid].push_back(s);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (auto& [tid, ts] : by_tid) {
    ASSERT_EQ(ts.size(), 2u) << "tid " << tid;
    const ParsedSpan& outer = ts[0].name == "t.outer" ? ts[0] : ts[1];
    const ParsedSpan& inner = ts[0].name == "t.inner" ? ts[0] : ts[1];
    EXPECT_EQ(outer.name, "t.outer");
    EXPECT_EQ(inner.name, "t.inner");
    EXPECT_GE(inner.ts, outer.ts - 1.0);
    EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur + 1.0);
  }
}

TEST_F(ObsExport, RunReportJsonParsesBackWithSpansAndMetrics) {
  reg_.counter("milp.nodes").add(5);
  {
    Span outer("synth");
    Span inner("mapping");
  }
  const JsonValue root = parse_json(report::run_report_json(reg_));
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* metrics = root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("milp.nodes"), nullptr);
  EXPECT_EQ(metrics->find("milp.nodes")->number, 5.0);
  const JsonValue* spans = root.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 2u);
  // Spans close innermost-first; containment must hold after parsing.
  const JsonValue& inner = spans->array[0];
  const JsonValue& outer = spans->array[1];
  EXPECT_EQ(inner.find("name")->string, "mapping");
  EXPECT_EQ(outer.find("name")->string, "synth");
  EXPECT_GE(inner.find("start_us")->number,
            outer.find("start_us")->number - 1.0);
  // The memory section exists (empty without profiling — still an array).
  const JsonValue* memory = root.find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->kind, JsonValue::Kind::kArray);
}

}  // namespace
}  // namespace xring::obs
