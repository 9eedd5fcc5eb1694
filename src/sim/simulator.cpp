#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "phys/units.hpp"

namespace xring::sim {

namespace {

/// Deterministic 64-bit LCG (same recurrence as the test suite's) so runs
/// reproduce exactly for a given seed.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2862933555777941757ULL + 1) {}
  double uniform() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state_ >> 11) / 9007199254740992.0;  // 2^53
  }

 private:
  std::uint64_t state_;
};

}  // namespace

double ber_from_snr_db(double snr_db) {
  if (snr_db >= analysis::kNoNoiseSnr) return 0.0;
  const double q = std::sqrt(phys::db_to_linear(snr_db));
  return 0.5 * std::erfc(q / std::sqrt(2.0));
}

SimReport simulate(const analysis::RouterDesign& design,
                   const analysis::RouterMetrics& metrics,
                   const SimOptions& opt) {
  obs::Span span("sim.run");
  const int num_flows = design.traffic.size();
  SimReport report;
  report.flows.resize(num_flows);

  const double slot_ns = opt.flit_bits / opt.bitrate_gbps;  // bits / (Gb/s)
  const long slots =
      static_cast<long>(opt.duration_us * 1000.0 / slot_ns);
  const int nodes = design.floorplan->size();

  // Flows per source (uniform split of the source's offered load).
  std::vector<int> flows_of_source(nodes, 0);
  for (const auto& sig : design.traffic.signals()) {
    flows_of_source[sig.src]++;
  }

  Lcg rng(opt.seed);
  constexpr double kSpeedOfLightMmPerNs = 299.792458;

  double latency_weighted_sum = 0.0;
  long delivered_total = 0;

  for (int f = 0; f < num_flows; ++f) {
    const auto& sig = design.traffic.signal(f);
    FlowStats& fs = report.flows[f];
    const int msg_flits = std::max(1, opt.mean_message_flits);
    const double p_message =
        std::min(1.0, opt.offered_load /
                          (flows_of_source[sig.src] *
                           static_cast<double>(msg_flits)));
    const double tof_ns = metrics.signals[f].loss.path_mm * opt.group_index /
                          kSpeedOfLightMmPerNs;
    fs.ber = ber_from_snr_db(metrics.signals[f].snr_db);

    // Slot loop: each flow owns its (waveguide, λ) channel — the network is
    // contention-free, so the only queue is the source's own serializer.
    // With single-flit messages latency is exactly serialization + flight;
    // bursty messages back up behind themselves and add queueing delay.
    long backlog = 0;
    for (long s = 0; s < slots; ++s) {
      if (rng.uniform() < p_message) {
        // A message arrives: geometric length with the configured mean.
        int flits = 1;
        while (flits < 64 * msg_flits &&
               rng.uniform() < 1.0 - 1.0 / msg_flits) {
          ++flits;
        }
        fs.flits_sent += flits;
        backlog += flits;
      }
      if (backlog > 0) {
        --backlog;
        ++fs.flits_delivered;
        const double latency = slot_ns * (1 + backlog) + tof_ns;
        fs.avg_latency_ns += latency;
        fs.max_latency_ns = std::max(fs.max_latency_ns, latency);
      }
    }
    if (fs.flits_delivered > 0) {
      fs.avg_latency_ns /= static_cast<double>(fs.flits_delivered);
    }
    fs.throughput_gbps = fs.flits_delivered * opt.flit_bits /
                         (opt.duration_us * 1000.0);
    fs.bit_errors = static_cast<long>(
        std::llround(fs.ber * fs.flits_delivered * opt.flit_bits));

    report.total_flits += fs.flits_delivered;
    report.aggregate_throughput_gbps += fs.throughput_gbps;
    latency_weighted_sum += fs.avg_latency_ns * fs.flits_delivered;
    delivered_total += fs.flits_delivered;
    report.worst_ber = std::max(report.worst_ber, fs.ber);
  }

  if (delivered_total > 0) {
    report.avg_latency_ns = latency_weighted_sum / delivered_total;
  }
  if (report.aggregate_throughput_gbps > 0) {
    // P[W] / R[Gb/s] = nJ/bit -> *1000 = pJ/bit.
    report.energy_per_bit_pj = metrics.total_power_w /
                               report.aggregate_throughput_gbps * 1000.0;
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("sim.runs").add();
    reg.counter("sim.slots").add(slots * static_cast<long long>(num_flows));
    reg.counter("sim.flits_delivered").add(report.total_flits);
    long long sent = 0;
    obs::Histogram& lat = reg.histogram("sim.flow_latency_ns");
    for (const FlowStats& fs : report.flows) {
      sent += fs.flits_sent;
      if (fs.flits_delivered > 0) lat.observe(fs.avg_latency_ns);
    }
    reg.counter("sim.flits_sent").add(sent);
    reg.gauge("sim.worst_ber").set(report.worst_ber);
  }
  return report;
}

}  // namespace xring::sim
