#pragma once

#include "mapping/wavelength.hpp"

namespace xring::mapping {

/// The ORNoC wavelength-assignment algorithm [10], used as the ring baseline
/// of Table II. ORNoC's key idea — reusing a (waveguide, wavelength) slot
/// for signals whose ring arcs do not overlap — is the same mechanism XRing
/// adopts, but ORNoC knows no shortcuts and no openings: every signal rides
/// a full circular waveguide in its shorter direction, signals are scanned
/// in source-major order (the serpentine scan of the original paper), and
/// new waveguides are opened when the #wl cap is hit. The first fit runs on
/// the Step-3 OccupancyIndex: shorter direction first, then the longer one,
/// waveguides ascending, λ ascending within each. Throws
/// std::invalid_argument when `max_wavelengths` < 1.
Mapping ornoc_assignment(const ring::Tour& tour,
                         const netlist::Traffic& traffic,
                         int max_wavelengths);

}  // namespace xring::mapping
