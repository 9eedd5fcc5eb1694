// Edge cases across the whole stack: the smallest legal networks, collinear
// and degenerate geometry, extreme option values — the inputs a released
// tool must not fall over on.

#include <gtest/gtest.h>

#include "baseline/oring.hpp"
#include "verify/drc.hpp"
#include "xring/sweep.hpp"

namespace xring {
namespace {

netlist::Floorplan points(std::initializer_list<geom::Point> pts) {
  std::vector<netlist::Node> nodes;
  for (const geom::Point& p : pts) nodes.push_back({0, p, ""});
  return netlist::Floorplan(std::move(nodes), 20000, 20000);
}

TEST(EdgeCases, ThreeNodeTriangleSynthesizes) {
  const auto fp = points({{0, 0}, {4000, 0}, {2000, 3000}});
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 3;
  const SynthesisResult r = synth.run(opt);
  EXPECT_EQ(static_cast<int>(r.design.mapping.routes.size()), 6);
  verify::DrcOptions drc;
  drc.max_wavelengths = 3;
  EXPECT_TRUE(verify::check(r.design, drc).empty());
}

TEST(EdgeCases, CollinearNodesStillFormARing) {
  // All nodes on one line: every ring "loop" degenerates to overlapping
  // back-and-forth runs (legal as parallel waveguides).
  const auto fp = points({{0, 0}, {2000, 0}, {4000, 0}, {6000, 0}});
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 4;
  const SynthesisResult r = synth.run(opt);
  EXPECT_EQ(r.design.ring.tour.size(), 4);
  EXPECT_EQ(r.design.ring.crossings, 0);
  for (const auto& route : r.design.mapping.routes) {
    EXPECT_NE(route.kind, mapping::RouteKind::kUnrouted);
  }
}

TEST(EdgeCases, WavelengthCapOfOne) {
  // #wl = 1 forces maximal waveguide counts but must still succeed.
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 1;
  const SynthesisResult r = synth.run(opt);
  for (const auto& route : r.design.mapping.routes) {
    EXPECT_NE(route.kind, mapping::RouteKind::kUnrouted);
    if (route.kind == mapping::RouteKind::kRingCw ||
        route.kind == mapping::RouteKind::kRingCcw) {
      EXPECT_EQ(route.wavelength, 0);
    }
  }
  EXPECT_GT(r.metrics.waveguides, 8);
}

TEST(EdgeCases, SingleSignalTraffic) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.traffic = netlist::Traffic({netlist::Signal{0, 2, 6}});
  const SynthesisResult r = synth.run(opt);
  ASSERT_EQ(r.metrics.signals.size(), 1u);
  EXPECT_GT(r.metrics.signals[0].loss.path_mm, 0.0);
  EXPECT_EQ(r.metrics.noisy_signals, 0);
  EXPECT_EQ(r.metrics.wavelengths, 1);
}

TEST(EdgeCases, HugePitchOnlyScalesPropagation) {
  const auto small = netlist::Floorplan::standard(8, 1000);
  const auto large = netlist::Floorplan::standard(8, 10000);
  Synthesizer ss(small), sl(large);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 8;
  opt.build_pdn = false;
  const auto rs = ss.run(opt);
  const auto rl = sl.run(opt);
  EXPECT_NEAR(rl.metrics.worst_path_mm / rs.metrics.worst_path_mm, 10.0, 0.5);
  // Device losses identical; only propagation scales.
  const double prop_small =
      rs.metrics.worst_path_mm * opt.params.loss.propagation_db_per_mm;
  const double prop_large =
      rl.metrics.worst_path_mm * opt.params.loss.propagation_db_per_mm;
  EXPECT_NEAR(rl.metrics.il_star_worst_db - prop_large,
              rs.metrics.il_star_worst_db - prop_small, 0.2);
}

TEST(EdgeCases, ZeroLossParametersGiveZeroStarLoss) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.build_pdn = false;
  opt.params.loss = phys::LossParams{};
  opt.params.loss.propagation_db_per_mm = 0;
  opt.params.loss.drop_db = 0;
  opt.params.loss.through_db = 0;
  opt.params.loss.crossing_db = 0;
  opt.params.loss.bend_db = 0;
  opt.params.loss.modulator_db = 0;
  opt.params.loss.photodetector_db = 0;
  const SynthesisResult r = synth.run(opt);
  EXPECT_NEAR(r.metrics.il_star_worst_db, 0.0, 1e-12);
}

TEST(EdgeCases, SweepDegenerateRange) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  const SweepResult r =
      sweep_xring(synth, SynthesisOptions{}, SweepGoal::kMinPower, 4, 4);
  EXPECT_EQ(r.settings_tried, 1);
  EXPECT_EQ(r.best_wl, 4);
}

TEST(EdgeCases, TwoNodeRingRejected) {
  const auto fp = points({{0, 0}, {1000, 0}});
  EXPECT_THROW(ring::build_ring(fp), std::invalid_argument);
}

TEST(EdgeCases, DuplicatePositionsAreTolerated) {
  // Two interfaces at the same spot (stacked dies): distance-0 edges are
  // legal and the tour simply visits both in sequence.
  const auto fp = points({{0, 0}, {0, 0}, {4000, 0}, {4000, 4000}});
  const auto r = ring::build_ring(fp);
  EXPECT_EQ(r.geometry.tour.size(), 4);
  EXPECT_EQ(r.geometry.tour.total_length(), 16000);
}

TEST(EdgeCases, OringBaselineHandlesTinyNetworks) {
  const auto fp = points({{0, 0}, {4000, 0}, {2000, 3000}});
  const auto ring = ring::build_ring(fp);
  baseline::OringOptions opt;
  opt.max_wavelengths = 3;
  const auto r = baseline::synthesize_oring(fp, ring, opt);
  EXPECT_EQ(static_cast<int>(r.design.mapping.routes.size()), 6);
  EXPECT_GT(r.metrics.total_power_w, 0.0);
}

}  // namespace
}  // namespace xring
