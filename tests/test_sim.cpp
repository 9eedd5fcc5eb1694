#include <gtest/gtest.h>

#include <cmath>

#include "baseline/oring.hpp"
#include "sim/simulator.hpp"
#include "xring/synthesizer.hpp"

namespace xring::sim {
namespace {

struct Fixture {
  Fixture()
      : fp(netlist::Floorplan::standard(8)), synth(fp), result(synth.run()) {}
  netlist::Floorplan fp;
  Synthesizer synth;
  SynthesisResult result;
};

TEST(BerModel, MonotoneInSnr) {
  EXPECT_EQ(ber_from_snr_db(analysis::kNoNoiseSnr), 0.0);
  EXPECT_GT(ber_from_snr_db(6.0), ber_from_snr_db(12.0));
  EXPECT_GT(ber_from_snr_db(12.0), ber_from_snr_db(20.0));
  // Known point: Q = 6 (SNR ~15.6 dB) gives BER ~1e-9.
  const double ber = ber_from_snr_db(10.0 * std::log10(36.0));
  EXPECT_GT(ber, 1e-10);
  EXPECT_LT(ber, 1e-8);
}

TEST(Simulator, FlitConservation) {
  const Fixture f;
  const SimReport r = simulate(f.result.design, f.result.metrics);
  long sent = 0, delivered = 0;
  for (const FlowStats& fs : r.flows) {
    sent += fs.flits_sent;
    delivered += fs.flits_delivered;
    EXPECT_LE(fs.flits_delivered, fs.flits_sent);
  }
  // One flit can still be in flight per flow at the end of the run.
  EXPECT_GE(delivered, sent - static_cast<long>(r.flows.size()));
  EXPECT_EQ(delivered, r.total_flits);
}

TEST(Simulator, ContentionFreedom) {
  // The WRONoC property: no queueing, so every flit's latency is exactly
  // serialization + time of flight.
  const Fixture f;
  SimOptions opt;
  opt.offered_load = 0.9;  // high load — still no contention
  const SimReport r = simulate(f.result.design, f.result.metrics, opt);
  const double slot_ns = opt.flit_bits / opt.bitrate_gbps;
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    if (r.flows[i].flits_delivered == 0) continue;
    const double tof_ns = f.result.metrics.signals[i].loss.path_mm *
                          opt.group_index / 299.792458;
    EXPECT_NEAR(r.flows[i].avg_latency_ns, slot_ns + tof_ns, 1e-6);
    EXPECT_NEAR(r.flows[i].max_latency_ns, slot_ns + tof_ns, 1e-6);
  }
}

TEST(Simulator, ThroughputTracksOfferedLoad) {
  const Fixture f;
  SimOptions low;
  low.offered_load = 0.2;
  low.duration_us = 5.0;
  SimOptions high = low;
  high.offered_load = 0.8;
  const SimReport rl = simulate(f.result.design, f.result.metrics, low);
  const SimReport rh = simulate(f.result.design, f.result.metrics, high);
  EXPECT_NEAR(rh.aggregate_throughput_gbps / rl.aggregate_throughput_gbps,
              4.0, 0.4);
  // Aggregate ~= nodes * load * bitrate.
  EXPECT_NEAR(rh.aggregate_throughput_gbps, 8 * 0.8 * 10.0,
              0.15 * 8 * 0.8 * 10.0);
}

TEST(Simulator, DeterministicForFixedSeed) {
  const Fixture f;
  const SimReport a = simulate(f.result.design, f.result.metrics);
  const SimReport b = simulate(f.result.design, f.result.metrics);
  EXPECT_EQ(a.total_flits, b.total_flits);
  EXPECT_DOUBLE_EQ(a.aggregate_throughput_gbps, b.aggregate_throughput_gbps);
  SimOptions other;
  other.seed = 99;
  const SimReport c = simulate(f.result.design, f.result.metrics, other);
  EXPECT_NE(a.total_flits, c.total_flits);
}

TEST(Simulator, CleanXRingHasZeroBitErrors) {
  const Fixture f;
  const SimReport r = simulate(f.result.design, f.result.metrics);
  EXPECT_EQ(r.worst_ber, 0.0);
  for (const FlowStats& fs : r.flows) EXPECT_EQ(fs.bit_errors, 0);
}

TEST(Simulator, NoisyBaselineHasWorseBer) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp);
  baseline::OringOptions oo;
  oo.max_wavelengths = 16;
  oo.params.crosstalk.crossing_db = -22.0;  // harsh crosstalk regime
  const auto orr = baseline::synthesize_oring(fp, ring, oo);
  const SimReport r = simulate(orr.design, orr.metrics);
  EXPECT_GT(r.worst_ber, 0.0);
}

TEST(Simulator, EnergyPerBitMatchesPowerOverThroughput) {
  const Fixture f;
  const SimReport r = simulate(f.result.design, f.result.metrics);
  ASSERT_GT(r.aggregate_throughput_gbps, 0.0);
  EXPECT_NEAR(r.energy_per_bit_pj,
              f.result.metrics.total_power_w /
                  r.aggregate_throughput_gbps * 1000.0,
              1e-9);
}

TEST(Simulator, BurstyMessagesCreateQueueingDelay) {
  // With multi-flit messages the source serializer backs up: max latency
  // exceeds the contention-free floor, average grows, but throughput is
  // conserved (the channel still drains everything).
  const Fixture f;
  SimOptions smooth;
  smooth.offered_load = 0.6;
  smooth.duration_us = 5.0;
  SimOptions bursty = smooth;
  bursty.mean_message_flits = 8;
  const SimReport rs = simulate(f.result.design, f.result.metrics, smooth);
  const SimReport rb = simulate(f.result.design, f.result.metrics, bursty);
  EXPECT_GT(rb.avg_latency_ns, rs.avg_latency_ns);
  double worst_smooth = 0, worst_bursty = 0;
  for (const auto& fl : rs.flows) worst_smooth = std::max(worst_smooth, fl.max_latency_ns);
  for (const auto& fl : rb.flows) worst_bursty = std::max(worst_bursty, fl.max_latency_ns);
  EXPECT_GT(worst_bursty, worst_smooth);
  // Offered load identical: throughput within sampling noise.
  EXPECT_NEAR(rb.aggregate_throughput_gbps, rs.aggregate_throughput_gbps,
              0.25 * rs.aggregate_throughput_gbps);
}

TEST(Simulator, SingleFlitMessagesKeepTheLatencyFloor) {
  const Fixture f;
  SimOptions opt;
  opt.mean_message_flits = 1;
  const SimReport r = simulate(f.result.design, f.result.metrics, opt);
  const double slot_ns = opt.flit_bits / opt.bitrate_gbps;
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    if (r.flows[i].flits_delivered == 0) continue;
    const double tof_ns = f.result.metrics.signals[i].loss.path_mm *
                          opt.group_index / 299.792458;
    EXPECT_NEAR(r.flows[i].max_latency_ns, slot_ns + tof_ns, 1e-6);
  }
}

}  // namespace
}  // namespace xring::sim
