#include <gtest/gtest.h>

#include "analysis/evaluate.hpp"
#include "analysis_reference.hpp"
#include "xring/synthesizer.hpp"

namespace xring::analysis {
namespace {

SynthesisResult make_design(int n, bool pdn = true) {
  static std::vector<std::unique_ptr<netlist::Floorplan>> keep_alive;
  keep_alive.push_back(
      std::make_unique<netlist::Floorplan>(netlist::Floorplan::standard(n)));
  Synthesizer synth(*keep_alive.back());
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  opt.build_pdn = pdn;
  return synth.run(opt);
}

TEST(RingScale, OuterRingsAreLonger) {
  const auto r = make_design(16);
  const RouterDesign& d = r.design;
  EXPECT_DOUBLE_EQ(d.ring_scale(0), 1.0);
  double prev = 1.0;
  for (int w = 1; w < static_cast<int>(d.mapping.waveguides.size()); ++w) {
    EXPECT_GT(d.ring_scale(w), prev);
    prev = d.ring_scale(w);
  }
  // Offsetting a closed rectilinear curve by d adds exactly 8d.
  const double spacing = d.params.geometry.ring_spacing_um(16);
  const double base = static_cast<double>(d.ring.tour.total_length());
  EXPECT_NEAR(d.ring_scale(1), (base + 8 * spacing) / base, 1e-12);
}

TEST(Receivers, CountsMatchMapping) {
  const auto r = make_design(8);
  const RouterDesign& d = r.design;
  for (std::size_t w = 0; w < d.mapping.waveguides.size(); ++w) {
    int receivers = 0, senders = 0;
    for (netlist::NodeId v = 0; v < 8; ++v) {
      receivers += reference::receivers_at(d, static_cast<int>(w), v);
      senders += reference::senders_at(d, static_cast<int>(w), v);
    }
    EXPECT_EQ(receivers, static_cast<int>(d.mapping.waveguides[w].signals.size()));
    EXPECT_EQ(senders, static_cast<int>(d.mapping.waveguides[w].signals.size()));
  }
}

TEST(Loss, BreakdownTotalsAreConsistent) {
  const auto r = make_design(16);
  const AnalysisContext ctx(r.design);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const LossBreakdown b = signal_loss(ctx, id);
    EXPECT_NEAR(b.total_db(), b.star_db() + b.pdn_db + b.coupler_db, 1e-12);
    EXPECT_GE(b.star_db(), 0.0);
    EXPECT_GT(b.path_mm, 0.0);
    EXPECT_GE(b.crossings, 0);
    EXPECT_GE(b.through_mrrs, 0);
    // Every path pays modulator, drop and photodetector at least once.
    EXPECT_GE(b.modulator_db, r.design.params.loss.modulator_db - 1e-12);
    EXPECT_GE(b.drop_db, r.design.params.loss.drop_db - 1e-12);
  }
}

TEST(Loss, NoPdnMeansNoFeedLoss) {
  const auto r = make_design(8, /*pdn=*/false);
  const AnalysisContext ctx(r.design);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const LossBreakdown b = signal_loss(ctx, id);
    EXPECT_EQ(b.pdn_db, 0.0);
    EXPECT_EQ(b.coupler_db, 0.0);
  }
}

TEST(Loss, XRingRingSignalsPassNoCrossings) {
  // The headline structural property: with a crossing-free ring and a tree
  // PDN, no ring-routed XRing signal passes any crossing.
  const auto r = make_design(16);
  const AnalysisContext ctx(r.design);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const auto kind = r.design.mapping.routes[id].kind;
    if (kind == mapping::RouteKind::kRingCw ||
        kind == mapping::RouteKind::kRingCcw) {
      EXPECT_EQ(signal_loss(ctx, id).crossings, 0);
    }
  }
}

TEST(Loss, ShortcutSignalsAreShorterThanTheirRingAlternative) {
  const auto r = make_design(32);
  const AnalysisContext ctx(r.design);
  const auto& tour = r.design.ring.tour;
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    if (r.design.mapping.routes[id].kind != mapping::RouteKind::kShortcut) {
      continue;
    }
    const auto& sig = r.design.traffic.signal(id);
    const double ring_mm =
        static_cast<double>(std::min(tour.arc_length_cw(sig.src, sig.dst),
                                     tour.arc_length_ccw(sig.src, sig.dst))) /
        1000.0;
    EXPECT_LT(signal_loss(ctx, id).path_mm, ring_mm);
  }
}

TEST(Loss, LongerArcsLoseMore) {
  // Within one waveguide, insertion loss is monotone in path length when
  // crossing/device counts are equal — check the propagation component.
  const auto r = make_design(16);
  const AnalysisContext ctx(r.design);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const LossBreakdown b = signal_loss(ctx, id);
    EXPECT_NEAR(b.propagation_db,
                b.path_mm * r.design.params.loss.propagation_db_per_mm, 1e-9);
  }
}

TEST(Context, HopCrossingMatrixSymmetric) {
  const auto r = make_design(16);
  const AnalysisContext ctx(r.design);
  const int n = r.design.ring.tour.size();
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      EXPECT_EQ(ctx.ring().hop_crossings(a, b), ctx.ring().hop_crossings(b, a));
    }
  }
  // The constructed ring is crossing-free: matrix must be all zero.
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) EXPECT_EQ(ctx.ring().hop_crossings(a, b), 0);
  }
}

TEST(Context, BendCountingOnKnownShape) {
  const auto r = make_design(8);
  const AnalysisContext ctx(r.design);
  // Around the whole 2x4 perimeter ring: exactly 4 corner turns (the grid
  // perimeter is a rectangle). The arc of all 8 hops from hop 0 is an open
  // walk: 4 corners - 1.
  EXPECT_EQ(ctx.ring().bends_on_arc(0, 8), 3);
}

}  // namespace
}  // namespace xring::analysis
