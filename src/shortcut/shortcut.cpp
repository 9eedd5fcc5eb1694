#include "shortcut/shortcut.hpp"

#include <algorithm>
#include <array>
#include <limits>

namespace xring::shortcut {

namespace {

using geom::LOrder;
using geom::LRoute;
using geom::Point;
using geom::Segment;

/// The four axis directions a leg of an L-route can run from a node.
enum Ray { kPlusX, kMinusX, kPlusY, kMinusY };

/// No ring segment blocks the ray.
constexpr geom::Coord kUnblocked = std::numeric_limits<geom::Coord>::max();

/// Per node and axis direction, the distance to the first ring segment that
/// the ray from the node crosses transversally (kUnblocked when none).
///
/// Only a perpendicular segment can cross an axis leg, and it crosses the
/// leg iff it holds the leg's line strictly inside its own span and lies
/// strictly between the leg's two ends. A leg of length L from the node
/// therefore clears the ring iff the first such segment along its ray is
/// at distance >= L. Collinear overlap and endpoint touches are legal —
/// physical waveguides run in parallel at a small offset, which the integer
/// node grid cannot represent (the paper's own Fig. 2 shortcut between
/// row-end nodes runs parallel to the ring's return edge) — so a blocker at
/// exactly L, touching the leg's bend or far node, does not block it.
std::vector<std::array<geom::Coord, 4>> ray_blockers(
    const geom::Polyline& ring, const netlist::Floorplan& floorplan) {
  std::vector<std::array<geom::Coord, 4>> blockers(
      floorplan.size(), {kUnblocked, kUnblocked, kUnblocked, kUnblocked});
  for (NodeId v = 0; v < floorplan.size(); ++v) {
    const Point p = floorplan.position(v);
    std::array<geom::Coord, 4>& b = blockers[v];
    for (const Segment& s : ring.segments()) {
      if (s.vertical()) {
        if (std::min(s.a.y, s.b.y) >= p.y || p.y >= std::max(s.a.y, s.b.y)) {
          continue;
        }
        if (s.a.x > p.x) b[kPlusX] = std::min(b[kPlusX], s.a.x - p.x);
        if (s.a.x < p.x) b[kMinusX] = std::min(b[kMinusX], p.x - s.a.x);
      } else if (s.horizontal()) {
        if (std::min(s.a.x, s.b.x) >= p.x || p.x >= std::max(s.a.x, s.b.x)) {
          continue;
        }
        if (s.a.y > p.y) b[kPlusY] = std::min(b[kPlusY], s.a.y - p.y);
        if (s.a.y < p.y) b[kMinusY] = std::min(b[kMinusY], p.y - s.a.y);
      }
    }
  }
  return blockers;
}

/// Distance along an L-route from its `from` endpoint to a point on it.
geom::Coord distance_along(const LRoute& route, const Point& target) {
  geom::Coord travelled = 0;
  for (const Segment& s : route.segments()) {
    if (geom::contains(s, target)) {
      return travelled + geom::manhattan(s.a, target);
    }
    travelled += s.length();
  }
  return travelled;  // target at the far endpoint of a degenerate route
}

/// Appends the CSE routes of every crossing pair in the plan (Fig. 7(b)): a
/// signal can enter on either endpoint of one shortcut and leave at either
/// endpoint of the other, turning at the crossing point.
void derive_cse_routes(ShortcutPlan& plan,
                       const netlist::Floorplan& floorplan) {
  for (std::size_t i = 0; i < plan.shortcuts.size(); ++i) {
    const Shortcut& A = plan.shortcuts[i];
    if (A.crossing_partner < 0 ||
        static_cast<std::size_t>(A.crossing_partner) < i) {
      continue;  // handle each pair once, from its lower index
    }
    const Shortcut& B = plan.shortcuts[A.crossing_partner];
    const Point x = *A.crossing;
    const LRoute route_a(floorplan.position(A.a), floorplan.position(A.b),
                         A.order);
    const LRoute route_b(floorplan.position(B.a), floorplan.position(B.b),
                         B.order);
    const geom::Coord a_to_x = distance_along(route_a, x);
    const geom::Coord b_to_x = distance_along(route_b, x);
    const geom::Coord from_a[2] = {a_to_x, route_a.length() - a_to_x};
    const geom::Coord from_b[2] = {b_to_x, route_b.length() - b_to_x};
    const NodeId ends_a[2] = {A.a, A.b};
    const NodeId ends_b[2] = {B.a, B.b};
    for (int ea = 0; ea < 2; ++ea) {
      for (int eb = 0; eb < 2; ++eb) {
        CseRoute r;
        r.src = ends_a[ea];
        r.dst = ends_b[eb];
        r.shortcut_in = static_cast<int>(i);
        r.shortcut_out = A.crossing_partner;
        r.length = from_a[ea] + from_b[eb];
        plan.cse_routes.push_back(r);
        std::swap(r.src, r.dst);
        std::swap(r.shortcut_in, r.shortcut_out);
        plan.cse_routes.push_back(r);
      }
    }
  }
}

}  // namespace

int ShortcutPlan::find(NodeId a, NodeId b) const {
  for (std::size_t i = 0; i < shortcuts.size(); ++i) {
    const Shortcut& s = shortcuts[i];
    if ((s.a == a && s.b == b) || (s.a == b && s.b == a)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<ChordCandidate> collect_candidates(
    const ring::RingGeometry& ring, const netlist::Floorplan& floorplan) {
  const ring::Tour& tour = ring.tour;
  const int n = floorplan.size();
  const std::vector<std::array<geom::Coord, 4>> blockers =
      ray_blockers(ring.polyline, floorplan);

  // Feasible chords with positive gain (Sec. III-B). Ring-adjacent node
  // pairs never gain: their cw arc is one hop of the same length. The gain
  // is O(1), so the geometry is only consulted for pairs that would gain.
  std::vector<ChordCandidate> candidates;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const geom::Coord len = floorplan.distance(a, b);
      const geom::Coord ring_len =
          std::min(tour.arc_length_cw(a, b), tour.arc_length_ccw(a, b));
      const geom::Coord gain = ring_len - len;
      if (gain <= 0) continue;
      // Vertical-first runs a y-leg from a, then an x-leg into b;
      // horizontal-first an x-leg from a, then a y-leg into b. Each leg is
      // the ray from its node toward the other node's coordinate.
      const Point pa = floorplan.position(a), pb = floorplan.position(b);
      const geom::Coord dx = pb.x - pa.x, dy = pb.y - pa.y;
      const geom::Coord len_x = dx < 0 ? -dx : dx, len_y = dy < 0 ? -dy : dy;
      const std::array<geom::Coord, 4>& ba = blockers[a];
      const std::array<geom::Coord, 4>& bb = blockers[b];
      const bool vh = ba[dy > 0 ? kPlusY : kMinusY] >= len_y &&
                      bb[dx > 0 ? kMinusX : kPlusX] >= len_x;
      const bool hv = ba[dx > 0 ? kPlusX : kMinusX] >= len_x &&
                      bb[dy > 0 ? kMinusY : kPlusY] >= len_y;
      if (!vh && !hv) continue;
      std::vector<LOrder> orders;
      if (vh) orders.push_back(LOrder::kVerticalFirst);
      if (hv) orders.push_back(LOrder::kHorizontalFirst);
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

ShortcutPlan build_shortcuts(const ring::RingGeometry& ring,
                             const netlist::Floorplan& floorplan,
                             const ShortcutOptions& options) {
  ShortcutPlan plan;
  if (!options.enable) return plan;

  const int n = floorplan.size();
  const std::vector<ChordCandidate> candidates =
      collect_candidates(ring, floorplan);

  // Greedy max-gain selection with the paper's two structural limits: at
  // most max_per_node shortcuts per node (1 in the paper), at most one
  // crossing partner per shortcut.
  std::vector<int> node_uses(n, 0);
  std::vector<LRoute> routes;  // realized chord per selected shortcut

  for (const ChordCandidate& c : candidates) {
    if (node_uses[c.a] >= options.max_per_node ||
        node_uses[c.b] >= options.max_per_node) {
      continue;
    }

    const Point pa = floorplan.position(c.a), pb = floorplan.position(c.b);
    int best_order = -1;
    int best_partner = -2;  // -1 means "no crossing", valid
    std::optional<Point> best_point;
    for (const LOrder order : c.feasible_orders) {
      const LRoute route(pa, pb, order);
      int partner = -1;
      std::optional<Point> point;
      bool ok = true;
      for (std::size_t s = 0; s < routes.size() && ok; ++s) {
        const int crossings = geom::crossing_count(route, routes[s]);
        if (crossings == 0) continue;
        // A usable CSE needs exactly one crossing point with exactly one
        // partner, and that partner must still be partnerless (the paper
        // allows a shortcut at most one crossing partner).
        if (crossings > 1 || partner != -1 ||
            plan.shortcuts[s].crossing_partner != -1) {
          ok = false;
          break;
        }
        partner = static_cast<int>(s);
        for (const Segment& rs : route.segments()) {
          for (const Segment& ts : routes[s].segments()) {
            if (auto p = geom::crossing_point(rs, ts)) point = p;
          }
        }
      }
      if (!ok) continue;
      // Prefer a crossing-free realization when one exists.
      if (best_order == -1 || (best_partner != -1 && partner == -1)) {
        best_order = static_cast<int>(order == LOrder::kHorizontalFirst);
        best_partner = partner;
        best_point = point;
      }
    }
    if (best_order == -1) continue;

    const LOrder order =
        best_order == 0 ? LOrder::kVerticalFirst : LOrder::kHorizontalFirst;
    Shortcut sc;
    sc.a = c.a;
    sc.b = c.b;
    sc.length = c.length;
    sc.gain = c.gain;
    sc.order = order;
    sc.crossing_partner = best_partner;
    sc.crossing = best_point;
    const int idx = static_cast<int>(plan.shortcuts.size());
    if (best_partner >= 0) {
      plan.shortcuts[best_partner].crossing_partner = idx;
      plan.shortcuts[best_partner].crossing = best_point;
    }
    plan.shortcuts.push_back(sc);
    routes.emplace_back(pa, pb, order);
    ++node_uses[c.a];
    ++node_uses[c.b];
  }

  derive_cse_routes(plan, floorplan);
  return plan;
}

}  // namespace xring::shortcut
