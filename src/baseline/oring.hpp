#pragma once

#include "analysis/evaluate.hpp"
#include "ring/builder.hpp"
#include "xring/synthesizer.hpp"

namespace xring::baseline {

/// ORing [17] baseline (Tables I/III): the manually designed ring router.
/// Its wavelength assignment — per-waveguide #wl cap, shortest-direction
/// mapping, first-fit-decreasing — is the very method XRing adopts in Step
/// 3; what ORing lacks are the shortcuts and the openings, so its PDN (the
/// comb design of [17]) must cross the ring waveguides. The baseline is
/// therefore a preset of Synthesizer::run_with_ring: shortcuts and openings
/// off, comb PDN.
struct OringOptions {
  int max_wavelengths = 16;
  bool with_pdn = true;
  phys::Parameters params = phys::Parameters::oring();
};

SynthesisResult synthesize_oring(const netlist::Floorplan& floorplan,
                                 const ring::RingBuildResult& ring,
                                 const OringOptions& options);

}  // namespace xring::baseline
