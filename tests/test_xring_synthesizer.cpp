#include <gtest/gtest.h>

#include <atomic>

#include "mapping_reference.hpp"
#include "xring/sweep.hpp"
#include "xring/synthesizer.hpp"

namespace xring {
namespace {

TEST(Synthesizer, FullPipelineCompletes) {
  for (const int n : {8, 16}) {
    const auto fp = netlist::Floorplan::standard(n);
    Synthesizer synth(fp);
    SynthesisOptions opt;
    opt.mapping.max_wavelengths = n;
    const SynthesisResult r = synth.run(opt);
    EXPECT_TRUE(r.ring_stats.mip_status == milp::MipStatus::kOptimal ||
                r.ring_stats.mip_status == milp::MipStatus::kFeasible);
    EXPECT_EQ(static_cast<int>(r.design.mapping.routes.size()), n * (n - 1));
    EXPECT_TRUE(r.design.has_pdn);
    EXPECT_GT(r.seconds, 0.0);
  }
}

TEST(Synthesizer, RingWaveguidesAreCrossingFree) {
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  const SynthesisResult r = synth.run();
  EXPECT_EQ(r.design.ring.crossings, 0);
  EXPECT_EQ(r.design.ring.polyline.self_crossings(), 0);
}

TEST(Synthesizer, TreePdnIsCrossingFree) {
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  const SynthesisResult r = synth.run();
  EXPECT_EQ(r.design.pdn.total_crossings, 0);
  EXPECT_TRUE(r.design.pdn.taps.empty());
}

TEST(Synthesizer, WorstCrossingsIsZero) {
  // The paper's C column for XRing: 0 at every size.
  for (const int n : {8, 16, 32}) {
    const auto fp = netlist::Floorplan::standard(n);
    Synthesizer synth(fp);
    SynthesisOptions opt;
    opt.mapping.max_wavelengths = n;
    const SynthesisResult r = synth.run(opt);
    EXPECT_EQ(r.metrics.worst_crossings, 0) << n << " nodes";
  }
}

TEST(Synthesizer, DisablingShortcutsRemovesThem) {
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.shortcuts.enable = false;
  const SynthesisResult r = synth.run(opt);
  EXPECT_TRUE(r.design.shortcuts.shortcuts.empty());
  for (const auto& route : r.design.mapping.routes) {
    EXPECT_NE(route.kind, mapping::RouteKind::kShortcut);
    EXPECT_NE(route.kind, mapping::RouteKind::kCse);
  }
}

TEST(Synthesizer, ShortcutsReduceMeanLossAndDetourLengths) {
  const auto fp = netlist::Floorplan::standard(32);
  Synthesizer synth(fp);
  SynthesisOptions with;
  with.mapping.max_wavelengths = 32;
  SynthesisOptions without;
  without.mapping.max_wavelengths = 32;
  without.shortcuts.enable = false;
  const auto a = synth.run(with);
  const auto b = synth.run(without);
  // Shortcuts cut the long-detour pairs: the mean path loss drops, and the
  // signals that ride shortcuts travel strictly shorter paths.
  auto mean_star = [](const analysis::RouterMetrics& m) {
    double sum = 0;
    for (const auto& s : m.signals) sum += s.loss.star_db();
    return sum / static_cast<double>(m.signals.size());
  };
  EXPECT_LT(mean_star(a.metrics), mean_star(b.metrics));
  int on_shortcut = 0;
  for (std::size_t id = 0; id < a.design.mapping.routes.size(); ++id) {
    const auto kind = a.design.mapping.routes[id].kind;
    if (kind == mapping::RouteKind::kShortcut ||
        kind == mapping::RouteKind::kCse) {
      ++on_shortcut;
      EXPECT_LT(a.metrics.signals[id].loss.path_mm,
                b.metrics.signals[id].loss.path_mm);
    }
  }
  EXPECT_GT(on_shortcut, 0);
}

TEST(Synthesizer, NoPdnMode) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.build_pdn = false;
  const SynthesisResult r = synth.run(opt);
  EXPECT_FALSE(r.design.has_pdn);
  EXPECT_NEAR(r.metrics.il_worst_db, r.metrics.il_star_worst_db, 1e-9);
}

TEST(Synthesizer, RunWithRingReusesStepOne) {
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  const auto ring = ring::build_ring(fp, synth.oracle(), {});
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 16;
  const auto a = synth.run_with_ring(opt, ring);
  const auto b = synth.run_with_ring(opt, ring);
  // Deterministic: same ring, same options, same design.
  EXPECT_EQ(a.metrics.il_star_worst_db, b.metrics.il_star_worst_db);
  EXPECT_EQ(a.metrics.wavelengths, b.metrics.wavelengths);
  EXPECT_EQ(a.metrics.waveguides, b.metrics.waveguides);
}

TEST(Sweep, FindsBestSettingForEachGoal) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  SynthesisOptions base;
  const SweepResult min_power =
      sweep_xring(synth, base, SweepGoal::kMinPower, 2, 8);
  const SweepResult max_snr =
      sweep_xring(synth, base, SweepGoal::kMaxSnr, 2, 8);
  EXPECT_EQ(min_power.settings_tried, 7);
  EXPECT_GE(min_power.best_wl, 2);
  EXPECT_LE(min_power.best_wl, 8);
  // The min-power setting can't have more power than the max-SNR one.
  EXPECT_LE(min_power.result.metrics.total_power_w,
            max_snr.result.metrics.total_power_w + 1e-12);
  // And the max-SNR setting can't have a lower SNR.
  EXPECT_GE(max_snr.result.metrics.snr_worst_db,
            min_power.result.metrics.snr_worst_db - 1e-12);
}

TEST(Sweep, GenericSweepDrivesAnyCallable) {
  std::atomic<int> calls{0};  // settings run concurrently on the pool
  const SweepResult r = sweep(
      [&](int wl) {
        ++calls;
        SynthesisResult s;
        s.metrics.total_power_w = std::abs(wl - 5);  // best at wl = 5
        s.metrics.snr_worst_db = wl;
        return s;
      },
      SweepGoal::kMinPower, 2, 9);
  EXPECT_EQ(calls, 8);
  EXPECT_EQ(r.best_wl, 5);
  EXPECT_EQ(r.result.metrics.total_power_w, 0.0);
}

TEST(Sweep, MinWorstLossGoal) {
  const SweepResult r = sweep(
      [&](int wl) {
        SynthesisResult s;
        s.metrics.il_star_worst_db = 100.0 / wl;
        return s;
      },
      SweepGoal::kMinWorstLoss, 1, 4);
  EXPECT_EQ(r.best_wl, 4);
}

/// End-to-end invariants across sizes and caps (parameterized).
class SynthesizerSweep : public ::testing::TestWithParam<int> {};

TEST_P(SynthesizerSweep, StructuralInvariants) {
  const int n = GetParam();
  const auto fp = netlist::Floorplan::standard(n);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  const SynthesisResult r = synth.run(opt);

  // 1. Every signal routed, 2. ring crossing-free, 3. every waveguide has
  // an opening, 4. no signal passes its waveguide's opening, 5. PDN feeds
  // every sender that exists.
  for (const auto& route : r.design.mapping.routes) {
    EXPECT_NE(route.kind, mapping::RouteKind::kUnrouted);
  }
  EXPECT_EQ(r.design.ring.crossings, 0);
  for (std::size_t w = 0; w < r.design.mapping.waveguides.size(); ++w) {
    const auto& wg = r.design.mapping.waveguides[w];
    EXPECT_GE(wg.opening, 0);
    EXPECT_EQ(mapping::reference::passing_signals(
                  r.design.ring.tour, r.design.traffic, r.design.mapping,
                  static_cast<int>(w), wg.opening),
              0);
    // Every node that actually sends on this waveguide has a feed; nodes
    // without a sender carry none (Sec. III-D: the leaves are the senders).
    std::vector<bool> sends(n, false);
    for (const auto id : wg.signals) {
      sends[r.design.traffic.signal(id).src] = true;
    }
    for (netlist::NodeId v = 0; v < n; ++v) {
      if (sends[v]) {
        EXPECT_GE(r.design.pdn.ring_feed_db[w][v], 0.0);
      } else {
        EXPECT_LT(r.design.pdn.ring_feed_db[w][v], 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SynthesizerSweep, ::testing::Values(8, 16, 32));

}  // namespace
}  // namespace xring
