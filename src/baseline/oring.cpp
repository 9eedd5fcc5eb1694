#include "baseline/oring.hpp"

#include "obs/obs.hpp"

namespace xring::baseline {

SynthesisResult synthesize_oring(const netlist::Floorplan& floorplan,
                                 const ring::RingBuildResult& ring,
                                 const OringOptions& options) {
  obs::Span span("baseline.synth");
  // ORing is XRing's own pipeline with the shortcuts and the openings off
  // and the comb PDN of [17] in place of the tree PDN.
  SynthesisOptions so;
  so.shortcuts.enable = false;
  so.openings.enable = false;
  so.pdn_style = SynthesisOptions::PdnStyle::kComb;
  so.build_pdn = options.with_pdn;
  so.mapping.max_wavelengths = options.max_wavelengths;
  so.params = options.params;
  return Synthesizer(floorplan).run_with_ring(so, ring);
}

}  // namespace xring::baseline
