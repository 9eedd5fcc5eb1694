#include <gtest/gtest.h>

#include "baseline/oring.hpp"
#include "baseline/ornoc.hpp"

namespace xring::baseline {
namespace {

struct Fixture {
  explicit Fixture(int n)
      : fp(netlist::Floorplan::standard(n)), ring(ring::build_ring(fp)) {}
  netlist::Floorplan fp;
  ring::RingBuildResult ring;
};

TEST(Ornoc, SynthesisCompletesAndRoutesAll) {
  const Fixture f(16);
  OrnocOptions opt;
  opt.max_wavelengths = 16;
  const auto r = synthesize_ornoc(f.fp, f.ring, opt);
  EXPECT_EQ(static_cast<int>(r.design.mapping.routes.size()), 240);
  EXPECT_TRUE(r.design.has_pdn);
  EXPECT_TRUE(r.design.shortcuts.shortcuts.empty());
  EXPECT_GT(r.metrics.total_power_w, 0.0);
}

TEST(Ornoc, NoOpeningsNoShortcuts) {
  const Fixture f(8);
  OrnocOptions opt;
  opt.max_wavelengths = 8;
  const auto r = synthesize_ornoc(f.fp, f.ring, opt);
  for (const auto& w : r.design.mapping.waveguides) {
    EXPECT_EQ(w.opening, -1);
  }
}

TEST(Ornoc, CombPdnCrossesRings) {
  const Fixture f(16);
  OrnocOptions opt;
  opt.max_wavelengths = 16;
  const auto r = synthesize_ornoc(f.fp, f.ring, opt);
  EXPECT_GT(r.design.pdn.total_crossings, 0);
  EXPECT_FALSE(r.design.pdn.taps.empty());
}

TEST(Ornoc, WithoutPdnHasNoFeedLossAndNoTaps) {
  const Fixture f(8);
  OrnocOptions opt;
  opt.max_wavelengths = 8;
  opt.with_pdn = false;
  const auto r = synthesize_ornoc(f.fp, f.ring, opt);
  EXPECT_FALSE(r.design.has_pdn);
  EXPECT_NEAR(r.metrics.il_worst_db, r.metrics.il_star_worst_db, 1e-9);
}

TEST(Oring, SynthesisCompletesAndRoutesAll) {
  const Fixture f(16);
  OringOptions opt;
  opt.max_wavelengths = 16;
  const auto r = synthesize_oring(f.fp, f.ring, opt);
  EXPECT_EQ(static_cast<int>(r.design.mapping.routes.size()), 240);
  for (const auto& route : r.design.mapping.routes) {
    EXPECT_TRUE(route.kind == mapping::RouteKind::kRingCw ||
                route.kind == mapping::RouteKind::kRingCcw);
  }
}

TEST(Oring, ShorterDirectionOnly) {
  // ORing (unlike ORNoC) maps every signal in its shorter direction.
  const Fixture f(16);
  OringOptions opt;
  opt.max_wavelengths = 16;
  const auto r = synthesize_oring(f.fp, f.ring, opt);
  const auto& tour = r.design.ring.tour;
  for (const auto& sig : r.design.traffic.signals()) {
    const auto& route = r.design.mapping.routes[sig.id];
    const geom::Coord cw = tour.arc_length_cw(sig.src, sig.dst);
    const geom::Coord ccw = tour.arc_length_ccw(sig.src, sig.dst);
    if (route.kind == mapping::RouteKind::kRingCw) {
      EXPECT_LE(cw, ccw);
    } else {
      EXPECT_LE(ccw, cw);
    }
  }
}

/// ORing assembled by hand from the Step-3 mapping and the comb PDN, as the
/// traffic-pattern study does.
analysis::RouterMetrics assembled_oring(const Fixture& f, int max_wavelengths) {
  analysis::RouterDesign d;
  d.floorplan = &f.fp;
  d.traffic = netlist::Traffic::all_to_all(f.fp.size());
  d.ring = f.ring.geometry;
  d.params = phys::Parameters::oring();
  mapping::MappingOptions mo;
  mo.max_wavelengths = max_wavelengths;
  d.mapping = mapping::assign_wavelengths(d.ring.tour, d.traffic, {}, mo);
  d.pdn = pdn::comb_pdn(d.ring.tour, d.mapping, d.params);
  d.has_pdn = true;
  return analysis::evaluate(d);
}

TEST(Oring, PresetMatchesAssembledDesign) {
  for (const int n : {8, 16}) {
    SCOPED_TRACE(n);
    const Fixture f(n);
    OringOptions opt;
    opt.max_wavelengths = n / 2;
    const analysis::RouterMetrics a = synthesize_oring(f.fp, f.ring, opt).metrics;
    const analysis::RouterMetrics b = assembled_oring(f, n / 2);
    EXPECT_EQ(a.wavelengths, b.wavelengths);
    EXPECT_EQ(a.waveguides, b.waveguides);
    EXPECT_EQ(a.il_worst_db, b.il_worst_db);
    EXPECT_EQ(a.il_star_worst_db, b.il_star_worst_db);
    EXPECT_EQ(a.worst_path_mm, b.worst_path_mm);
    EXPECT_EQ(a.worst_crossings, b.worst_crossings);
    EXPECT_EQ(a.total_power_w, b.total_power_w);
    EXPECT_EQ(a.noisy_signals, b.noisy_signals);
    EXPECT_EQ(a.snr_worst_db, b.snr_worst_db);
    EXPECT_EQ(a.laser_mw, b.laser_mw);
    ASSERT_EQ(a.signals.size(), b.signals.size());
    for (std::size_t i = 0; i < a.signals.size(); ++i) {
      const analysis::LossBreakdown& x = a.signals[i].loss;
      const analysis::LossBreakdown& y = b.signals[i].loss;
      EXPECT_EQ(x.propagation_db, y.propagation_db) << "signal " << i;
      EXPECT_EQ(x.modulator_db, y.modulator_db) << "signal " << i;
      EXPECT_EQ(x.drop_db, y.drop_db) << "signal " << i;
      EXPECT_EQ(x.through_db, y.through_db) << "signal " << i;
      EXPECT_EQ(x.crossing_db, y.crossing_db) << "signal " << i;
      EXPECT_EQ(x.bend_db, y.bend_db) << "signal " << i;
      EXPECT_EQ(x.photodetector_db, y.photodetector_db) << "signal " << i;
      EXPECT_EQ(x.pdn_db, y.pdn_db) << "signal " << i;
      EXPECT_EQ(x.coupler_db, y.coupler_db) << "signal " << i;
      EXPECT_EQ(x.path_mm, y.path_mm) << "signal " << i;
      EXPECT_EQ(x.crossings, y.crossings) << "signal " << i;
      EXPECT_EQ(x.through_mrrs, y.through_mrrs) << "signal " << i;
      EXPECT_EQ(x.bends, y.bends) << "signal " << i;
      EXPECT_EQ(a.signals[i].noise_mw, b.signals[i].noise_mw) << "signal " << i;
      EXPECT_EQ(a.signals[i].snr_db, b.signals[i].snr_db) << "signal " << i;
    }
    ASSERT_EQ(a.xtalk_ledger.size(), b.xtalk_ledger.size());
    for (std::size_t i = 0; i < a.xtalk_ledger.size(); ++i) {
      const analysis::XtalkContribution& x = a.xtalk_ledger[i];
      const analysis::XtalkContribution& y = b.xtalk_ledger[i];
      EXPECT_EQ(x.victim, y.victim) << "row " << i;
      EXPECT_EQ(x.aggressor, y.aggressor) << "row " << i;
      EXPECT_EQ(x.source, y.source) << "row " << i;
      EXPECT_EQ(x.node, y.node) << "row " << i;
      EXPECT_EQ(x.noise_mw, y.noise_mw) << "row " << i;
    }
  }
}

TEST(Baselines, OrnocLongWayRoutingCostsCapacity) {
  // ORNoC fills existing slots even via the long direction; those long arcs
  // consume more (waveguide, λ) capacity overall, so it never needs fewer
  // waveguides than the shortest-direction FFD of ORing at the same cap.
  const Fixture f(16);
  OrnocOptions oo;
  oo.max_wavelengths = 16;
  OringOptions go;
  go.max_wavelengths = 16;
  const auto ornoc = synthesize_ornoc(f.fp, f.ring, oo);
  const auto oring = synthesize_oring(f.fp, f.ring, go);
  EXPECT_GE(ornoc.design.mapping.waveguides.size(),
            oring.design.mapping.waveguides.size());
}

TEST(Baselines, OrnocWorstPathLongerThanOring) {
  // The price of packing: ORNoC's worst-case detours (paper Table II:
  // L = 32 mm vs ORing's ~16 mm at 16 nodes).
  const Fixture f(16);
  OrnocOptions oo;
  oo.max_wavelengths = 16;
  OringOptions go;
  go.max_wavelengths = 16;
  const auto ornoc = synthesize_ornoc(f.fp, f.ring, oo);
  const auto oring = synthesize_oring(f.fp, f.ring, go);
  EXPECT_GT(ornoc.metrics.worst_path_mm, oring.metrics.worst_path_mm);
}

TEST(Baselines, BothSufferWidespreadNoiseWithPdn) {
  const Fixture f(16);
  OrnocOptions oo;
  oo.max_wavelengths = 16;
  OringOptions go;
  go.max_wavelengths = 16;
  const auto ornoc = synthesize_ornoc(f.fp, f.ring, oo);
  const auto oring = synthesize_oring(f.fp, f.ring, go);
  EXPECT_GT(ornoc.metrics.noisy_signals, 100);
  EXPECT_GT(oring.metrics.noisy_signals, 100);
}

}  // namespace
}  // namespace xring::baseline
