#pragma once

#include <array>
#include <vector>

#include "geom/segment.hpp"

namespace xring::geom {

/// Which leg of an L-shaped rectilinear route is taken first.
enum class LOrder {
  kVerticalFirst,    ///< route vertically, then horizontally (Fig. 6(b), red)
  kHorizontalFirst,  ///< route horizontally, then vertically (Fig. 6(b), blue)
};

/// An L-shaped rectilinear route between two points (possibly degenerate to
/// a straight segment when the points are axis-aligned). This is the routing
/// primitive the XRing MILP model reasons about: every graph edge is
/// implemented as one of its two L-route options.
class LRoute {
 public:
  LRoute(Point from, Point to, LOrder order);

  const Point& from() const { return from_; }
  const Point& to() const { return to_; }
  LOrder order() const { return order_; }
  const Point& bend() const { return bend_; }

  /// The one or two non-degenerate axis-aligned segments of the route.
  const std::vector<Segment>& segments() const { return segments_; }

  /// Total route length == Manhattan distance between the endpoints.
  Coord length() const { return manhattan(from_, to_); }

  /// True if the route degenerates to a single straight segment (or a point).
  bool straight() const { return segments_.size() <= 1; }

 private:
  Point from_;
  Point to_;
  Point bend_;
  LOrder order_;
  std::vector<Segment> segments_;
};

/// Both L-route options for an edge. For axis-aligned endpoints the two
/// options coincide; both entries are still populated so callers can iterate
/// uniformly.
std::array<LRoute, 2> l_route_options(Point from, Point to);

/// True if the two concrete routes form at least one waveguide crossing.
/// Endpoint/bend touching does not count as a crossing, matching the paper's
/// treatment of consecutive ring edges that share a node.
bool routes_cross(const LRoute& a, const LRoute& b);

/// Number of transversal crossings between the two routes.
int crossing_count(const LRoute& a, const LRoute& b);

/// True if the two concrete routes overlap collinearly anywhere (an illegal
/// configuration for two distinct waveguides).
bool routes_overlap(const LRoute& a, const LRoute& b);

/// The legs of both L-route options of one edge, in the flat form the
/// conflict test reads. Option o (0 = vertical-first, 1 = horizontal-first)
/// has one horizontal leg at y = h_y[o] and one vertical leg at x = v_x[o];
/// both legs of both options span the edge's bounding box [x_lo, x_hi] x
/// [y_lo, y_hi] in their own direction. A leg is degenerate when its span is
/// empty; it then has no interior and crosses nothing.
struct EdgeLegs {
  EdgeLegs(Point from, Point to);

  Point from;
  Point to;
  Coord x_lo, x_hi, y_lo, y_hi;
  std::array<Coord, 2> h_y;
  std::array<Coord, 2> v_x;
};

/// The paper's conflict test (Sec. III-A): two edges are *conflicting* iff
/// every one of the four combinations of their L-route options forms a
/// transversal crossing. Collinear overlap is legal, and edges sharing an
/// endpoint position never conflict. Conflict-free edges can always be
/// co-selected. Allocates nothing.
bool edges_conflict(const EdgeLegs& a, const EdgeLegs& b);

/// Convenience form on the edges' endpoints.
bool edges_conflict(Point a_from, Point a_to, Point b_from, Point b_to);

}  // namespace xring::geom
