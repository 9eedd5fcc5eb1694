#include "analysis/design.hpp"

namespace xring::analysis {

const char* to_string(XtalkSource s) {
  switch (s) {
    case XtalkSource::kPdnLeak: return "pdn-leak";
    case XtalkSource::kShortcutCrossing: return "shortcut-crossing";
    case XtalkSource::kCseResidue: return "cse-residue";
    case XtalkSource::kReceiverResidue: return "receiver-residue";
    case XtalkSource::kRingCrossing: return "ring-crossing";
  }
  return "unknown";
}

double RouterDesign::ring_scale(int waveguide) const {
  const double base = static_cast<double>(ring.tour.total_length());
  if (base <= 0) return 1.0;
  const double spacing =
      params.geometry.ring_spacing_um(floorplan ? floorplan->size()
                                                : ring.tour.size());
  return (base + 8.0 * spacing * waveguide) / base;
}

}  // namespace xring::analysis
