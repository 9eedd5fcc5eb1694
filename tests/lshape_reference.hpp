#pragma once

#include "geom/lshape.hpp"

namespace xring::geom {

/// The edge-conflict test as first written: materialize both L-route
/// options of each edge as `LRoute`s and ask `routes_cross` of all four
/// combinations. Kept verbatim as the reference the allocation-free
/// `edges_conflict` is held against.
inline bool reference_edges_conflict(Point a_from, Point a_to, Point b_from,
                                     Point b_to) {
  // Edges sharing an endpoint are never conflicting: they can always join at
  // the shared node without a transversal crossing (the ring visits the node).
  if (a_from == b_from || a_from == b_to || a_to == b_from || a_to == b_to) {
    return false;
  }
  // Only transversal crossings disqualify an option pair. Collinear overlap
  // is legal: physical waveguides have width and run in parallel at a small
  // offset, which the integer grid of node coordinates cannot represent.
  for (const LRoute& ra : l_route_options(a_from, a_to)) {
    for (const LRoute& rb : l_route_options(b_from, b_to)) {
      if (!routes_cross(ra, rb)) return false;
    }
  }
  return true;
}

}  // namespace xring::geom
