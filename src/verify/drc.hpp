#pragma once

#include <string>
#include <vector>

#include "analysis/design.hpp"

namespace xring::verify {

/// A single design-rule violation.
struct Violation {
  enum class Rule {
    kRingCrossing,          ///< ring hops cross each other
    kChordCrossesRing,      ///< a shortcut chord crosses a ring waveguide
    kChordOverdegree,       ///< more crossing partners than allowed
    kUnroutedSignal,        ///< a demand has no route
    kWavelengthCap,         ///< a ring route exceeds the #wl cap
    kArcOverlap,            ///< same (waveguide, λ) with overlapping arcs
    kOpeningMissing,        ///< a ring waveguide has no opening
    kOpeningBlocked,        ///< a signal passes through an opening
    kShortcutNodeCap,       ///< a node exceeds its shortcut budget
    kPdnMissingFeed,        ///< a used sender has no PDN feed
    kCseWavelengthClash,    ///< crossed shortcuts share a wavelength
  };

  Rule rule;
  std::string message;
};

std::string to_string(Violation::Rule rule);

/// Which rule families to check. Openings/PDN rules only apply when the
/// design claims to have them.
struct DrcOptions {
  int max_wavelengths = 0;       ///< 0 = don't check the cap
  bool require_openings = true;  ///< only enforced when the design has a PDN
};

/// Checks a synthesized router design against the structural rules the
/// XRing flow promises (and the paper's constraints). An empty result means
/// the design is legal; the synthesis tests run this on every output, and
/// users can run it on hand-modified designs.
std::vector<Violation> check(const analysis::RouterDesign& design,
                             const DrcOptions& options = {});

/// Human-readable report (one line per violation; "clean" if none).
std::string report(const std::vector<Violation>& violations);

}  // namespace xring::verify
