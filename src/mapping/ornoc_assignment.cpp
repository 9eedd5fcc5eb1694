#include "mapping/ornoc_assignment.hpp"

#include <algorithm>

#include "mapping/occupancy.hpp"
#include "obs/obs.hpp"

namespace xring::mapping {

Mapping ornoc_assignment(const ring::Tour& tour,
                         const netlist::Traffic& traffic,
                         int max_wavelengths) {
  obs::Span span("baseline.mapping");
  Mapping m;
  m.routes.assign(traffic.size(), SignalRoute{});
  const ArcTable arcs(tour, traffic);
  OccupancyIndex index(arcs, m, max_wavelengths);

  for (const auto& sig : traffic.signals()) {
    const geom::Coord cw = tour.arc_length_cw(sig.src, sig.dst);
    const geom::Coord ccw = tour.arc_length_ccw(sig.src, sig.dst);
    const Direction shorter = cw <= ccw ? Direction::kCw : Direction::kCcw;
    const Direction longer =
        shorter == Direction::kCw ? Direction::kCcw : Direction::kCw;

    // ORNoC packs aggressively: it exhausts existing (waveguide, λ) slots —
    // accepting the long way around the ring — before it ever adds a
    // waveguide. This is what keeps its resource count low and its
    // worst-case path close to the full perimeter.
    OccupancyIndex::Slot slot = index.find_first_fit(shorter, sig.id, -1);
    if (slot.waveguide < 0) slot = index.find_first_fit(longer, sig.id, -1);
    if (slot.waveguide < 0) slot = {index.add_waveguide(shorter), 0};
    index.place(sig.id, slot.waveguide, slot.wavelength);
  }

  int max_wl = -1;
  for (const SignalRoute& r : m.routes) max_wl = std::max(max_wl, r.wavelength);
  m.wavelengths_used = max_wl + 1;
  return m;
}

}  // namespace xring::mapping
