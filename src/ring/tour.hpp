#pragma once

#include <vector>

#include "geom/polyline.hpp"
#include "netlist/floorplan.hpp"

namespace xring::ring {

using netlist::NodeId;

/// A cyclic visiting order of all network nodes — the output of Step 1
/// before geometric realization. Hop `h` connects `at(h)` to `at(h+1)`;
/// "clockwise" in this library always means tour order (the r1 direction),
/// counter-clockwise is the reverse (r2).
class Tour {
 public:
  Tour() = default;
  explicit Tour(std::vector<NodeId> order,
                const netlist::Floorplan* floorplan = nullptr);

  int size() const { return static_cast<int>(order_.size()); }
  const std::vector<NodeId>& order() const { return order_; }

  /// Node at (cyclic) position `pos`.
  NodeId at(int pos) const {
    const int n = size();
    return order_[((pos % n) + n) % n];
  }

  /// Position of a node in the tour.
  int position(NodeId node) const { return position_.at(node); }

  /// Manhattan length of hop h (from at(h) to at(h+1)), micrometres.
  geom::Coord hop_length(int hop) const {
    const int n = size();
    return hop_lengths_[((hop % n) + n) % n];
  }

  /// Total tour length (sum of hop Manhattan lengths).
  geom::Coord total_length() const { return total_length_; }

  /// Number of hops travelled going from src to dst in tour order.
  int hops_cw(NodeId src, NodeId dst) const;

  /// Length of the clockwise (tour-order) arc from src to dst. O(1): two
  /// prefix-sum lookups.
  geom::Coord arc_length_cw(NodeId src, NodeId dst) const;

  /// Length of the counter-clockwise arc from src to dst.
  geom::Coord arc_length_ccw(NodeId src, NodeId dst) const {
    return total_length() - arc_length_cw(src, dst);
  }

  /// The hop indices covered by the clockwise arc src→dst (for ccw travel,
  /// the covered hops are those of the cw arc dst→src).
  std::vector<int> hops_on_arc_cw(NodeId src, NodeId dst) const;

  /// The undirected edge set {(at(h), at(h+1))} of the tour.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  std::vector<NodeId> order_;
  std::vector<int> position_;           // node id -> position
  std::vector<geom::Coord> hop_lengths_;
  std::vector<geom::Coord> prefix_;     // prefix_[p] = hops 0..p-1 summed
  geom::Coord total_length_ = 0;
};

/// A realized ring: the tour plus a concrete L-order per hop and the
/// resulting rectilinear polyline. `crossings` counts transversal crossings
/// between non-adjacent hop routes — zero for a legal XRing construction.
struct RingGeometry {
  Tour tour;
  std::vector<geom::LOrder> hop_orders;
  geom::Polyline polyline;
  int crossings = 0;
};

/// Chooses hop L-orders minimizing crossings (exhaustive for small tours,
/// greedy+backtracking otherwise) and realizes the tour as a polyline.
RingGeometry realize(const Tour& tour, const netlist::Floorplan& floorplan);

}  // namespace xring::ring
