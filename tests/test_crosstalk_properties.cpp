// Physical sanity properties of the crosstalk engine, checked on the noisy
// baseline configurations where first-order noise actually flows.

#include <gtest/gtest.h>

#include "baseline/ornoc.hpp"
#include "phys/units.hpp"
#include "xring/synthesizer.hpp"

namespace xring::analysis {
namespace {

SynthesisResult noisy_router(int n, double crossing_xt_db = -40.0) {
  static std::vector<std::unique_ptr<netlist::Floorplan>> keep;
  static std::vector<std::unique_ptr<ring::RingBuildResult>> rings;
  keep.push_back(
      std::make_unique<netlist::Floorplan>(netlist::Floorplan::standard(n)));
  rings.push_back(
      std::make_unique<ring::RingBuildResult>(ring::build_ring(*keep.back())));
  baseline::OrnocOptions opt;
  opt.max_wavelengths = n;
  opt.params.crosstalk.crossing_db = crossing_xt_db;
  return baseline::synthesize_ornoc(*keep.back(), *rings.back(), opt);
}

TEST(CrosstalkProperties, NoiseBoundedByInjectedLeakage) {
  // Conservation: total noise received can never exceed the total leakage
  // injected (each tap leaks laser_mw * attenuation * Kx per wavelength,
  // and propagation only attenuates further).
  const auto r = noisy_router(16);
  const double kx = phys::db_to_linear(r.design.params.crosstalk.crossing_db);

  // Reconstruct per-wavelength laser powers from the reported signals.
  const int wls = std::max(1, r.design.mapping.wavelengths_used);
  std::vector<double> laser(wls, 0.0);
  for (int i = 0; i < r.design.traffic.size(); ++i) {
    const int wl = r.design.mapping.routes[i].wavelength;
    laser[wl] = std::max(
        laser[wl],
        phys::laser_power_mw(r.metrics.signals[i].loss.total_db(),
                             r.design.params.loss.receiver_sensitivity_dbm));
  }
  double injected = 0.0;
  for (const pdn::CrossingTap& tap : r.design.pdn.taps) {
    for (const double p : laser) {
      injected += p *
                  phys::db_to_linear(-(tap.attenuation_db +
                                       r.design.params.loss.coupler_db)) *
                  kx;
    }
  }
  double received = 0.0;
  for (const SignalReport& s : r.metrics.signals) received += s.noise_mw;
  EXPECT_GT(received, 0.0);
  EXPECT_LE(received, injected * (1 + 1e-9));
}

TEST(CrosstalkProperties, StrongerLeakMoreNoisePower) {
  const auto weak = noisy_router(16, -45.0);
  const auto strong = noisy_router(16, -35.0);
  double weak_total = 0, strong_total = 0;
  for (const auto& s : weak.metrics.signals) weak_total += s.noise_mw;
  for (const auto& s : strong.metrics.signals) strong_total += s.noise_mw;
  // 10 dB more leakage: ~10x the noise (not exact — laser powers differ
  // marginally through crossing loss, not through the crosstalk knob).
  EXPECT_NEAR(strong_total / weak_total, 10.0, 1.0);
}

TEST(CrosstalkProperties, NoiseOnlyAtMatchingWavelengthReceivers) {
  // A receiver's noise is nonzero only if some leak existed on its own
  // wavelength; with a single-wavelength design every receiver shares it.
  const auto r = noisy_router(16);
  for (int i = 0; i < r.design.traffic.size(); ++i) {
    if (r.metrics.signals[i].noise_mw > 0) {
      EXPECT_GE(r.design.mapping.routes[i].wavelength, 0);
    }
  }
}

TEST(CrosstalkProperties, NoiseFloorSuppressesCounting) {
  // Raising the floor above every contribution empties #s without touching
  // the loss side.
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp);
  baseline::OrnocOptions low;
  low.max_wavelengths = 16;
  baseline::OrnocOptions high = low;
  high.params.crosstalk.noise_floor_mw = 1e9;
  const auto rl = baseline::synthesize_ornoc(fp, ring, low);
  const auto rh = baseline::synthesize_ornoc(fp, ring, high);
  EXPECT_GT(rl.metrics.noisy_signals, 0);
  EXPECT_EQ(rh.metrics.noisy_signals, 0);
  EXPECT_NEAR(rl.metrics.il_worst_db, rh.metrics.il_worst_db, 1e-9);
}

TEST(CrosstalkProperties, SnrImprovesWithReceiverProximityToLaser) {
  // All receivers on one wavelength share the same laser; SNR differences
  // come from path loss vs accumulated noise. Sanity: best SNR >= worst.
  const auto r = noisy_router(16);
  double best = 0, worst = kNoNoiseSnr;
  for (const auto& s : r.metrics.signals) {
    if (s.snr_db >= kNoNoiseSnr) continue;
    best = std::max(best, s.snr_db);
    worst = std::min(worst, s.snr_db);
  }
  EXPECT_GT(best, worst);
  EXPECT_EQ(worst, r.metrics.snr_worst_db);
}

}  // namespace
}  // namespace xring::analysis
