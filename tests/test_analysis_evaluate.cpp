#include <gtest/gtest.h>

#include "analysis/evaluate.hpp"
#include "phys/units.hpp"
#include "xring/synthesizer.hpp"

namespace xring::analysis {
namespace {

SynthesisResult make(int n, bool pdn = true) {
  static std::vector<std::unique_ptr<netlist::Floorplan>> keep_alive;
  keep_alive.push_back(
      std::make_unique<netlist::Floorplan>(netlist::Floorplan::standard(n)));
  Synthesizer synth(*keep_alive.back());
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  opt.build_pdn = pdn;
  return synth.run(opt);
}

TEST(Evaluate, WorstLossIsTheMaximum) {
  const auto r = make(16);
  double max_il = 0, max_star = 0;
  for (const SignalReport& s : r.metrics.signals) {
    max_il = std::max(max_il, s.loss.total_db());
    max_star = std::max(max_star, s.loss.star_db());
  }
  EXPECT_DOUBLE_EQ(r.metrics.il_worst_db, max_il);
  EXPECT_DOUBLE_EQ(r.metrics.il_star_worst_db, max_star);
}

TEST(Evaluate, WorstPathBelongsToWorstStarSignal) {
  const auto r = make(16);
  const SignalReport* worst = nullptr;
  for (const SignalReport& s : r.metrics.signals) {
    if (worst == nullptr || s.loss.star_db() > worst->loss.star_db()) {
      worst = &s;
    }
  }
  ASSERT_NE(worst, nullptr);
  EXPECT_DOUBLE_EQ(r.metrics.worst_path_mm, worst->loss.path_mm);
  EXPECT_EQ(r.metrics.worst_crossings, worst->loss.crossings);
}

TEST(Evaluate, LaserPowerFollowsTheFormula) {
  const auto r = make(8);
  // Reconstruct the per-wavelength laser powers and the total.
  const int wl_count = std::max(1, r.design.mapping.wavelengths_used);
  std::vector<double> laser(wl_count, 0.0);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const int wl = r.design.mapping.routes[id].wavelength;
    laser[wl] = std::max(
        laser[wl],
        phys::laser_power_mw(r.metrics.signals[id].loss.total_db(),
                             r.design.params.loss.receiver_sensitivity_dbm));
  }
  double total = 0;
  for (const double p : laser) total += p;
  EXPECT_NEAR(r.metrics.total_power_w,
              total / 1000.0 / r.design.params.loss.laser_wall_plug_efficiency,
              1e-9);
}

TEST(Evaluate, SignalPowerConsistentWithLaserAndLoss) {
  const auto r = make(8);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const double laser_mw =
        r.metrics.laser_mw[r.design.mapping.routes[id].wavelength];
    const double received_mw =
        laser_mw * phys::db_to_linear(-r.metrics.signals[id].loss.total_db());
    EXPECT_GT(received_mw, 0.0);
    // Received power can never exceed its laser's emitted power.
    EXPECT_LT(received_mw, laser_mw);
    EXPECT_LT(received_mw, 1e6);
  }
}

TEST(Evaluate, MorePdnLossMoreLaserPower) {
  const auto with_pdn = make(16, true);
  const auto without = make(16, false);
  EXPECT_GT(with_pdn.metrics.total_power_w, without.metrics.total_power_w);
  EXPECT_GT(with_pdn.metrics.il_worst_db, without.metrics.il_worst_db);
  // il* excludes the PDN: comparable between the two runs.
  EXPECT_NEAR(with_pdn.metrics.il_star_worst_db,
              without.metrics.il_star_worst_db, 0.5);
}

TEST(Evaluate, WavelengthCountsReported) {
  const auto r = make(16);
  EXPECT_GT(r.metrics.wavelengths, 0);
  EXPECT_LE(r.metrics.wavelengths, 16);
  EXPECT_EQ(r.metrics.waveguides,
            static_cast<int>(r.design.mapping.waveguides.size()));
  EXPECT_EQ(static_cast<int>(r.metrics.signals.size()), 16 * 15);
}

TEST(Evaluate, ReceiverSensitivityShiftsPowerNotSnr) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  SynthesisOptions a;
  a.mapping.max_wavelengths = 8;
  SynthesisOptions b;
  b.mapping.max_wavelengths = 8;
  b.params.loss.receiver_sensitivity_dbm += 10.0;  // 10 dB less sensitive
  const auto ra = synth.run(a);
  const auto rb = synth.run(b);
  EXPECT_NEAR(rb.metrics.total_power_w / ra.metrics.total_power_w, 10.0, 1e-6);
}

TEST(Evaluate, LaserVectorExposed) {
  const auto r = make(8);
  ASSERT_EQ(static_cast<int>(r.metrics.laser_mw.size()),
            std::max(1, r.design.mapping.wavelengths_used));
  double total = 0;
  for (const double p : r.metrics.laser_mw) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(r.metrics.total_power_w,
              total / 1000.0 / r.design.params.loss.laser_wall_plug_efficiency,
              1e-12);
}

}  // namespace
}  // namespace xring::analysis
