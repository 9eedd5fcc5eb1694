#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "shortcut/shortcut.hpp"

namespace xring::shortcut {

/// Clockwise arc length as first written: the hop lengths summed one by
/// one. Kept as the reference `Tour::arc_length_cw`'s prefix sums are held
/// against.
inline geom::Coord reference_arc_length_cw(const ring::Tour& tour,
                                           NodeId src, NodeId dst) {
  const int start = tour.position(src);
  const int hops = tour.hops_cw(src, dst);
  geom::Coord len = 0;
  for (int h = 0; h < hops; ++h) len += tour.hop_length(start + h);
  return len;
}

/// True if `route` can coexist with the realized ring: no transversal
/// crossing with any ring segment. Collinear overlap and endpoint touches
/// are legal — physical waveguides run in parallel at a small offset, which
/// the integer node grid cannot represent (the paper's own Fig. 2 shortcut
/// between row-end nodes runs parallel to the ring's return edge).
inline bool reference_clears_ring(const geom::LRoute& route,
                                  const geom::Polyline& ring) {
  for (const geom::Segment& rs : route.segments()) {
    for (const geom::Segment& ss : ring.segments()) {
      if (geom::classify(rs, ss) == geom::Touch::kCross) return false;
    }
  }
  return true;
}

/// Can a chord between the two nodes be routed (either L-order) without
/// crossing the realized ring? Returns the first usable order if so.
inline std::optional<geom::LOrder> reference_feasible_chord(
    const ring::RingGeometry& ring, const netlist::Floorplan& floorplan,
    NodeId a, NodeId b) {
  const geom::Point pa = floorplan.position(a), pb = floorplan.position(b);
  for (const geom::LRoute& route : geom::l_route_options(pa, pb)) {
    if (reference_clears_ring(route, ring.polyline)) return route.order();
  }
  return std::nullopt;
}

/// Step 2's candidate scan as first written: both L-routes of every node
/// pair checked against every ring segment, O(n³). Kept verbatim (with the
/// hop-sum arc length above) as the reference the ray-blocker scan of
/// `collect_candidates` is held against.
inline std::vector<ChordCandidate> reference_collect_candidates(
    const ring::RingGeometry& ring, const netlist::Floorplan& floorplan) {
  const ring::Tour& tour = ring.tour;
  const int n = floorplan.size();

  // Feasible chords with positive gain (Sec. III-B). Ring-adjacent node
  // pairs never gain: their cw arc is one hop of the same length.
  std::vector<ChordCandidate> candidates;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const geom::Point pa = floorplan.position(a), pb = floorplan.position(b);
      std::vector<geom::LOrder> orders;
      for (const geom::LRoute& route : geom::l_route_options(pa, pb)) {
        if (reference_clears_ring(route, ring.polyline)) {
          orders.push_back(route.order());
        }
      }
      if (orders.empty()) continue;
      const geom::Coord len = floorplan.distance(a, b);
      const geom::Coord cw = reference_arc_length_cw(tour, a, b);
      const geom::Coord ring_len = std::min(cw, tour.total_length() - cw);
      const geom::Coord gain = ring_len - len;
      if (gain <= 0) continue;
      candidates.push_back(ChordCandidate{a, b, len, gain, std::move(orders)});
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const ChordCandidate& x, const ChordCandidate& y) {
              if (x.gain != y.gain) return x.gain > y.gain;
              return std::make_pair(x.a, x.b) < std::make_pair(y.a, y.b);
            });
  return candidates;
}

}  // namespace xring::shortcut
