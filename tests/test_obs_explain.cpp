// Tests of the run-explainability layer: the per-signal loss breakdowns and
// the crosstalk attribution table retained by analysis::evaluate (their
// sums must reproduce the headline totals), the structured diagnostics
// emitted by the pipeline stages, and the HTML/JSON run report built from
// them.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "baseline/oring.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "report/run_report.hpp"
#include "verify/drc.hpp"
#include "xring/synthesizer.hpp"

namespace xring {
namespace {

/// Records one test into a fresh registry through a context installed on
/// the test thread for the fixture's lifetime (same pattern as
/// test_obs.cpp).
class ObsExplainTest : public ::testing::Test {
 protected:
  bool has_diagnostic(const std::string& code) const {
    for (const obs::Diagnostic& d : reg_.diagnostics()) {
      if (d.code == code) return true;
    }
    return false;
  }

  // The returned design holds a pointer to the floorplan, so it must live
  // in the fixture, not in a helper's stack frame.
  SynthesisResult synthesize(int nodes) {
    fp_ = netlist::Floorplan::standard(nodes);
    Synthesizer synth(fp_);
    SynthesisOptions opt;
    opt.mapping.max_wavelengths = nodes;
    return synth.run(opt);
  }

  /// An ORing baseline with its crossing comb PDN: the design the paper
  /// shows suffering first-order noise, so the attribution ledger is
  /// non-trivial.
  SynthesisResult synthesize_noisy(int nodes) {
    fp_ = netlist::Floorplan::standard(nodes);
    Synthesizer synth(fp_);
    const auto ring = ring::build_ring(fp_, synth.oracle(), {});
    baseline::OringOptions opt;
    opt.max_wavelengths = nodes;
    return baseline::synthesize_oring(fp_, ring, opt);
  }

  netlist::Floorplan fp_;
  obs::Registry reg_;
  obs::Context ctx_{&reg_};
  obs::ScopedContext scope_{ctx_};
};

// --- Provenance ledgers --------------------------------------------------

TEST_F(ObsExplainTest, LossLedgerTermsSumToReportedLosses) {
  const SynthesisResult r = synthesize(8);
  const analysis::RouterMetrics& m = r.metrics;
  ASSERT_FALSE(m.signals.empty());
  for (std::size_t i = 0; i < m.signals.size(); ++i) {
    const analysis::LossBreakdown& b = m.signals[i].loss;
    // The itemized dB components must reproduce the on-path loss il*.
    const double star = b.propagation_db + b.modulator_db + b.drop_db +
                        b.through_db + b.crossing_db + b.bend_db +
                        b.photodetector_db;
    EXPECT_NEAR(star, b.star_db(), 1e-12) << "signal " << i;
    EXPECT_GE(b.pdn_db + b.coupler_db, 0.0) << "signal " << i;
  }
}

TEST_F(ObsExplainTest, XtalkAttributionRowsSumToVictimNoise) {
  const SynthesisResult r = synthesize_noisy(8);
  const analysis::RouterMetrics& m = r.metrics;
  ASSERT_GT(m.noisy_signals, 0) << "ORing with a comb PDN must see noise";
  ASSERT_FALSE(m.xtalk_ledger.empty());

  std::vector<double> summed(m.signals.size(), 0.0);
  for (const analysis::XtalkContribution& x : m.xtalk_ledger) {
    ASSERT_GE(x.victim, 0);
    ASSERT_LT(x.victim, static_cast<int>(m.signals.size()));
    EXPECT_GT(x.noise_mw, 0.0);
    summed[x.victim] += x.noise_mw;
  }
  for (std::size_t v = 0; v < m.signals.size(); ++v) {
    // Replaying the deposits in ledger order reproduces the accumulation
    // evaluate() performed, so the match is essentially exact.
    EXPECT_NEAR(summed[v], m.signals[v].noise_mw,
                1e-9 * std::max(1.0, m.signals[v].noise_mw))
        << "victim " << v;
  }
}

TEST_F(ObsExplainTest, XtalkLedgerEmptyForCleanDesign) {
  const SynthesisResult r = synthesize(8);
  // XRing's headline claim: no first-order crosstalk — so nothing to
  // attribute, and every signal's noise is zero.
  EXPECT_EQ(r.metrics.noisy_signals, 0);
  for (const analysis::XtalkContribution& x : r.metrics.xtalk_ledger) {
    EXPECT_LT(x.noise_mw, r.design.params.crosstalk.noise_floor_mw);
  }
}

TEST_F(ObsExplainTest, XtalkSourceNamesAreStable) {
  EXPECT_STREQ(analysis::to_string(analysis::XtalkSource::kPdnLeak),
               "pdn-leak");
  EXPECT_STREQ(analysis::to_string(analysis::XtalkSource::kReceiverResidue),
               "receiver-residue");
}

// --- Diagnostics ---------------------------------------------------------

TEST_F(ObsExplainTest, SnrBelowThresholdEmitsDiagnostic) {
  SynthesisResult r = synthesize_noisy(8);
  EXPECT_FALSE(has_diagnostic("analysis.snr_below_threshold"))
      << "default threshold should not flag the baseline";
  // Re-evaluate with an absurdly high threshold: every noisy signal's SNR
  // now falls below it and must be flagged.
  r.design.params.crosstalk.snr_warn_db = 1e6;
  const analysis::RouterMetrics m = analysis::evaluate(r.design);
  ASSERT_GT(m.noisy_signals, 0);
  EXPECT_TRUE(has_diagnostic("analysis.snr_below_threshold"));
  for (const obs::Diagnostic& d : reg_.diagnostics()) {
    if (d.code != "analysis.snr_below_threshold") continue;
    EXPECT_EQ(d.severity, obs::Severity::kWarning);
    bool has_signal_key = false;
    for (const auto& [k, v] : d.context) has_signal_key |= (k == "signal");
    EXPECT_TRUE(has_signal_key);
  }
}

TEST_F(ObsExplainTest, WavelengthConflictEmitsDiagnostic) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 1;  // all2all cannot fit in one λ
  synth.run(opt);
  EXPECT_TRUE(has_diagnostic("mapping.wavelength_conflict"));
}

TEST_F(ObsExplainTest, MilpInfeasibleEmitsDiagnostic) {
  milp::Model model;
  const int x = model.add_variable(milp::VarType::kBinary, 0.0, 1.0, 1.0);
  model.add_constraint({{x, 1.0}}, milp::Sense::kGe, 1.0);
  model.add_constraint({{x, 1.0}}, milp::Sense::kLe, 0.0);
  const milp::MipResult res = milp::solve(model);
  EXPECT_EQ(res.status, milp::MipStatus::kInfeasible);
  EXPECT_TRUE(has_diagnostic("milp.infeasible"));
}

TEST_F(ObsExplainTest, DrcViolationEmitsDiagnosticPerRule) {
  const SynthesisResult r = synthesize(8);
  ASSERT_TRUE(verify::check(r.design).empty());
  EXPECT_FALSE(has_diagnostic("drc.wavelength-cap"));
  // Check the same (legal) design against a cap of one wavelength: every
  // ring route above λ0 now violates the rule.
  verify::DrcOptions drc;
  drc.max_wavelengths = 1;
  const auto violations = verify::check(r.design, drc);
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(has_diagnostic("drc.wavelength-cap"));
}

TEST_F(ObsExplainTest, DiagnosticsJsonListsEveryRecord) {
  obs::diagnose(obs::Severity::kError, "test.code", "broke \"badly\"",
                {{"key", "value"}});
  obs::diagnose(obs::Severity::kInfo, "test.other", "fine");
  const std::string json = obs::diagnostics_json(reg_);
  EXPECT_NE(json.find("\"code\":\"test.code\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("broke \\\"badly\\\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"value\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"test.other\""), std::string::npos);
}

// --- Run report ----------------------------------------------------------

TEST_F(ObsExplainTest, RunReportHtmlContainsEverySection) {
  const SynthesisResult r = synthesize_noisy(8);
  const std::string html =
      report::run_report_html(reg_, &r.design, &r.metrics);
  for (const char* section : {"id=\"diagnostics\"", "id=\"timeline\"",
                              "id=\"convergence\"", "id=\"waterfall\"",
                              "id=\"xtalk\"", "id=\"metrics\""}) {
    EXPECT_NE(html.find(section), std::string::npos) << section;
  }
  // Self-contained: no external scripts or stylesheets.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  // The noisy baseline has attribution rows to draw.
  EXPECT_NE(html.find("pdn-leak"), std::string::npos);
}

TEST_F(ObsExplainTest, RunReportJsonCarriesLedgersAndMetrics) {
  const SynthesisResult r = synthesize_noisy(8);
  const std::string json =
      report::run_report_json(reg_, &r.design, &r.metrics);
  for (const char* key : {"\"title\"", "\"metrics\"", "\"spans\"",
                          "\"series\"", "\"diagnostics\"", "\"signals\"",
                          "\"xtalk\"", "\"loss\"", "\"propagation_db\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }

  // Every signal itemizes its loss in nine components: the seven on-path
  // ones sum to il*, and adding the PDN feed and coupler gives il.
  const obs::JsonValue doc = obs::parse_json(json);
  const obs::JsonValue* signals = doc.find("signals");
  ASSERT_NE(signals, nullptr);
  ASSERT_EQ(signals->array.size(), r.metrics.signals.size());
  constexpr const char* kComponents[] = {
      "propagation_db", "modulator_db", "drop_db", "through_db",
      "crossing_db", "bend_db", "photodetector_db", "pdn_db", "coupler_db"};
  constexpr std::size_t kOnPath = 7;  // propagation .. photodetector
  for (std::size_t i = 0; i < signals->array.size(); ++i) {
    const obs::JsonValue& s = signals->array[i];
    const obs::JsonValue* loss = s.find("loss");
    ASSERT_NE(loss, nullptr) << "signal " << i;
    ASSERT_EQ(loss->object.size(), std::size(kComponents)) << "signal " << i;
    double sum = 0.0;
    for (std::size_t c = 0; c < loss->object.size(); ++c) {
      EXPECT_EQ(loss->object[c].first, kComponents[c]) << "signal " << i;
      sum += loss->object[c].second.number;
      if (c + 1 == kOnPath) {
        EXPECT_NEAR(sum, s.find("il_star_db")->number, 1e-9) << "signal " << i;
      }
    }
    EXPECT_NEAR(sum, s.find("il_db")->number, 1e-9) << "signal " << i;
  }

  // Each victim's crosstalk rows sum to its reported noise power.
  const obs::JsonValue* xtalk = doc.find("xtalk");
  ASSERT_NE(xtalk, nullptr);
  ASSERT_FALSE(xtalk->array.empty()) << "ORing with a comb PDN must see noise";
  std::vector<double> noise(signals->array.size(), 0.0);
  for (const obs::JsonValue& row : xtalk->array) {
    const int victim = static_cast<int>(row.find("victim")->number);
    ASSERT_GE(victim, 0);
    ASSERT_LT(victim, static_cast<int>(noise.size()));
    noise[victim] += row.find("noise_mw")->number;
  }
  for (std::size_t i = 0; i < noise.size(); ++i) {
    const double reported = signals->array[i].find("noise_mw")->number;
    EXPECT_NEAR(noise[i], reported, 1e-9 * reported) << "victim " << i;
  }
}

TEST_F(ObsExplainTest, RunReportDegradesWithoutDesign) {
  { obs::Span s("synth"); }
  const std::string html = report::run_report_html(reg_);
  EXPECT_NE(html.find("id=\"timeline\""), std::string::npos);
  EXPECT_EQ(html.find("id=\"waterfall\""), std::string::npos);
  EXPECT_EQ(html.find("id=\"xtalk\""), std::string::npos);
}

// --- metrics_from_json (the bench_compare reader) ------------------------

TEST_F(ObsExplainTest, MetricsJsonRoundTripsThroughParser) {
  reg_.counter("milp.nodes").add(17);
  reg_.gauge("table1.n8.XRing.il_w").set(2.25);
  reg_.histogram("lp.iterations").observe(12.0);
  const std::map<std::string, double> parsed =
      obs::metrics_from_json(obs::metrics_json(reg_));
  const std::map<std::string, double> flat = reg_.flatten();
  ASSERT_EQ(parsed.size(), flat.size());
  for (const auto& [name, value] : flat) {
    ASSERT_TRUE(parsed.count(name)) << name;
    EXPECT_DOUBLE_EQ(parsed.at(name), value) << name;
  }
}

TEST_F(ObsExplainTest, MetricsJsonParserRejectsMalformedInput) {
  EXPECT_THROW(obs::metrics_from_json("not json"), std::invalid_argument);
  EXPECT_THROW(obs::metrics_from_json("{\"a\": }"), std::invalid_argument);
  EXPECT_THROW(obs::metrics_from_json("{\"a\": 1} trailing"),
               std::invalid_argument);
  EXPECT_THROW(obs::metrics_from_json("{\"a\": [1]}"), std::invalid_argument);
  const auto parsed = obs::metrics_from_json("{\"a\": null, \"b\": -2e3}");
  EXPECT_TRUE(std::isnan(parsed.at("a")));
  EXPECT_EQ(parsed.at("b"), -2000.0);
}

}  // namespace
}  // namespace xring
