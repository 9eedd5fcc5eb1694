#include <gtest/gtest.h>

#include <cmath>

#include "analysis/evaluate.hpp"
#include "baseline/oring.hpp"
#include "baseline/ornoc.hpp"
#include "phys/units.hpp"
#include "xring/synthesizer.hpp"

namespace xring::analysis {
namespace {

/// Signal power at `id`'s photodetector: its wavelength's laser power
/// attenuated by the signal's full insertion loss.
double received_mw(const SynthesisResult& r, SignalId id) {
  const int wl = r.design.mapping.routes[id].wavelength;
  return r.metrics.laser_mw[wl] *
         phys::db_to_linear(-r.metrics.signals[id].loss.total_db());
}

TEST(Crosstalk, XRingTreePdnProducesNoLaserLeak) {
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 16;
  const auto r = synth.run(opt);
  // No comb PDN, wavelength-disciplined shortcuts: at most a handful of
  // signals may see crosstalk; the paper's claim is >= 98 % clean.
  const int total = r.design.traffic.size();
  EXPECT_LE(r.metrics.noisy_signals, total / 50);
}

TEST(Crosstalk, CombPdnLeaksIntoManyReceivers) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp);
  baseline::OringOptions opt;
  opt.max_wavelengths = 16;
  const auto r = baseline::synthesize_oring(fp, ring, opt);
  // The paper reports 87 % of ORing signals suffering first-order noise.
  EXPECT_GT(r.metrics.noisy_signals, r.design.traffic.size() / 2);
  EXPECT_LT(r.metrics.snr_worst_db, kNoNoiseSnr);
}

TEST(Crosstalk, NoisePowersAreNonNegativeAndFinite) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp);
  baseline::OrnocOptions opt;
  opt.max_wavelengths = 16;
  const auto r = baseline::synthesize_ornoc(fp, ring, opt);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const SignalReport& s = r.metrics.signals[id];
    EXPECT_GE(s.noise_mw, 0.0);
    EXPECT_TRUE(std::isfinite(s.noise_mw));
    EXPECT_GT(received_mw(r, id), 0.0);
    if (s.noise_mw > 0.0) {
      // First-order noise is always far below the signal (SNR positive):
      // leak coefficients are -25 dB and below.
      EXPECT_GT(s.snr_db, 0.0);
    }
  }
}

TEST(Crosstalk, NoiseScalesWithCrossingCoefficient) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp);
  baseline::OringOptions weak;
  weak.max_wavelengths = 16;
  weak.params.crosstalk.crossing_db = -50.0;
  baseline::OringOptions strong = weak;
  strong.params.crosstalk.crossing_db = -30.0;
  const auto r_weak = baseline::synthesize_oring(fp, ring, weak);
  const auto r_strong = baseline::synthesize_oring(fp, ring, strong);
  EXPECT_GT(r_weak.metrics.snr_worst_db, r_strong.metrics.snr_worst_db);
}

TEST(Crosstalk, SnrIsSignalOverNoiseInDb) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp);
  baseline::OringOptions opt;
  opt.max_wavelengths = 16;
  const auto r = baseline::synthesize_oring(fp, ring, opt);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const SignalReport& s = r.metrics.signals[id];
    if (s.noise_mw > opt.params.crosstalk.noise_floor_mw) {
      EXPECT_NEAR(s.snr_db, 10.0 * std::log10(received_mw(r, id) / s.noise_mw),
                  1e-9);
    } else {
      EXPECT_EQ(s.snr_db, kNoNoiseSnr);
    }
  }
}

TEST(Crosstalk, WorstSnrIsTheMinimumOverNoisySignals) {
  const auto fp = netlist::Floorplan::standard(8);
  const auto ring = ring::build_ring(fp);
  baseline::OrnocOptions opt;
  opt.max_wavelengths = 8;
  const auto r = baseline::synthesize_ornoc(fp, ring, opt);
  double min_snr = kNoNoiseSnr;
  int noisy = 0;
  for (const SignalReport& s : r.metrics.signals) {
    if (s.snr_db < kNoNoiseSnr) {
      ++noisy;
      min_snr = std::min(min_snr, s.snr_db);
    }
  }
  EXPECT_EQ(noisy, r.metrics.noisy_signals);
  EXPECT_DOUBLE_EQ(min_snr, r.metrics.snr_worst_db);
}

TEST(Crosstalk, OpeningsBlockNoisePropagation) {
  // Same router with and without openings, keeping the comb PDN: openings
  // terminate travelling noise, so they can only reduce the per-receiver
  // noise power (all else equal).
  const auto fp = netlist::Floorplan::standard(8);
  const auto traffic = netlist::Traffic::all_to_all(8);
  const auto ring = ring::build_ring(fp);
  const auto params = phys::Parameters::oring();

  auto build = [&](bool with_openings) {
    RouterDesign d;
    d.floorplan = &fp;
    d.traffic = traffic;
    d.ring = ring.geometry;
    d.params = params;
    mapping::MappingOptions mo;
    mo.max_wavelengths = 8;
    d.mapping = mapping::assign_wavelengths(d.ring.tour, d.traffic, {}, mo);
    if (with_openings) {
      mapping::create_openings(d.ring.tour, d.traffic, d.mapping, mo);
    }
    d.pdn = pdn::comb_pdn(d.ring.tour, d.mapping, d.params);
    d.has_pdn = true;
    return evaluate(d);
  };

  const RouterMetrics open = build(true);
  const RouterMetrics closed = build(false);
  double open_total = 0, closed_total = 0;
  for (const auto& s : open.signals) open_total += s.noise_mw;
  for (const auto& s : closed.signals) closed_total += s.noise_mw;
  EXPECT_LE(open.noisy_signals, closed.noisy_signals + 8);
  EXPECT_GT(closed_total, 0.0);
}

}  // namespace
}  // namespace xring::analysis
