#include "geom/lshape.hpp"

#include <algorithm>

namespace xring::geom {

LRoute::LRoute(Point from, Point to, LOrder order)
    : from_(from), to_(to), order_(order) {
  bend_ = order == LOrder::kVerticalFirst ? Point{from.x, to.y}
                                          : Point{to.x, from.y};
  auto push_if_real = [this](Point a, Point b) {
    if (a != b) segments_.push_back(Segment{a, b});
  };
  push_if_real(from_, bend_);
  push_if_real(bend_, to_);
}

std::array<LRoute, 2> l_route_options(Point from, Point to) {
  return {LRoute(from, to, LOrder::kVerticalFirst),
          LRoute(from, to, LOrder::kHorizontalFirst)};
}

bool routes_cross(const LRoute& a, const LRoute& b) {
  return crossing_count(a, b) > 0;
}

int crossing_count(const LRoute& a, const LRoute& b) {
  int n = 0;
  for (const Segment& s : a.segments()) {
    for (const Segment& t : b.segments()) {
      if (crosses(s, t)) ++n;
    }
  }
  return n;
}

bool routes_overlap(const LRoute& a, const LRoute& b) {
  for (const Segment& s : a.segments()) {
    for (const Segment& t : b.segments()) {
      if (classify(s, t) == Touch::kOverlap) return true;
    }
  }
  return false;
}

EdgeLegs::EdgeLegs(Point from, Point to)
    : from(from),
      to(to),
      x_lo(std::min(from.x, to.x)),
      x_hi(std::max(from.x, to.x)),
      y_lo(std::min(from.y, to.y)),
      y_hi(std::max(from.y, to.y)),
      // Vertical-first bends at (from.x, to.y); horizontal-first at
      // (to.x, from.y).
      h_y{to.y, from.y},
      v_x{from.x, to.x} {}

namespace {

/// True if the horizontal leg of `h` at y and the vertical leg of `v` at x
/// cross at a point strictly inside both. Only a horizontal and a vertical
/// leg can cross transversally; parallel legs at most overlap, and touching
/// at an endpoint or bend is not a crossing.
bool legs_cross(const EdgeLegs& h, Coord y, const EdgeLegs& v, Coord x) {
  return h.x_lo < x && x < h.x_hi && v.y_lo < y && y < v.y_hi;
}

}  // namespace

bool edges_conflict(const EdgeLegs& a, const EdgeLegs& b) {
  // Every crossing point lies in both closed bounding boxes.
  if (a.x_hi < b.x_lo || b.x_hi < a.x_lo || a.y_hi < b.y_lo ||
      b.y_hi < a.y_lo) {
    return false;
  }
  // Edges sharing an endpoint are never conflicting: they can always join at
  // the shared node without a transversal crossing (the ring visits the node).
  if (a.from == b.from || a.from == b.to || a.to == b.from || a.to == b.to) {
    return false;
  }
  // Only transversal crossings disqualify an option pair. Collinear overlap
  // is legal: physical waveguides have width and run in parallel at a small
  // offset, which the integer grid of node coordinates cannot represent.
  for (int oa = 0; oa < 2; ++oa) {
    for (int ob = 0; ob < 2; ++ob) {
      if (!legs_cross(a, a.h_y[oa], b, b.v_x[ob]) &&
          !legs_cross(b, b.h_y[ob], a, a.v_x[oa])) {
        return false;
      }
    }
  }
  return true;
}

bool edges_conflict(Point a_from, Point a_to, Point b_from, Point b_to) {
  return edges_conflict(EdgeLegs(a_from, a_to), EdgeLegs(b_from, b_to));
}

}  // namespace xring::geom
