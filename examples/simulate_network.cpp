// Run the message-level simulator on a synthesized router: demonstrates the
// WRONoC promise (contention-free, deterministic latency) and derives
// system-level figures (aggregate throughput, energy per bit, BER).
//
// Usage: simulate_network [nodes] [offered_load]

#include <cstdio>
#include <cstdlib>

#include "sim/simulator.hpp"
#include "xring/synthesizer.hpp"

int main(int argc, char** argv) {
  using namespace xring;
  const int n = argc > 1 ? std::atoi(argv[1]) : 16;
  const double load = argc > 2 ? std::atof(argv[2]) : 0.6;

  const auto fp = netlist::Floorplan::standard(n);
  const Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  const SynthesisResult r = synth.run(opt);

  sim::SimOptions so;
  so.offered_load = load;
  so.duration_us = 5.0;
  const sim::SimReport rep = sim::simulate(r.design, r.metrics, so);

  std::printf("%d-node XRing, offered load %.0f%% of one channel per node\n\n",
              n, load * 100);
  std::printf("flits delivered      : %ld\n", rep.total_flits);
  std::printf("aggregate throughput : %.1f Gb/s\n",
              rep.aggregate_throughput_gbps);
  std::printf("average latency      : %.1f ns (serialization + flight only:\n"
              "                       wavelength routing has no contention)\n",
              rep.avg_latency_ns);
  std::printf("worst BER            : %.2e\n", rep.worst_ber);
  std::printf("laser energy per bit : %.2f pJ\n", rep.energy_per_bit_pj);

  // Show the latency split for the farthest flow.
  double worst = 0;
  int worst_flow = 0;
  for (std::size_t i = 0; i < rep.flows.size(); ++i) {
    if (rep.flows[i].max_latency_ns > worst) {
      worst = rep.flows[i].max_latency_ns;
      worst_flow = static_cast<int>(i);
    }
  }
  const auto& sig = r.design.traffic.signal(worst_flow);
  std::printf("\nslowest flow n%d -> n%d: %.1f ns over %.1f mm\n", sig.src,
              sig.dst, worst, r.metrics.signals[worst_flow].loss.path_mm);
  return 0;
}
