#pragma once

#include <vector>

#include "geom/lshape.hpp"
#include "netlist/floorplan.hpp"

namespace xring::ring {

using netlist::NodeId;

/// Enumerates the directed edges of the complete graph over N nodes, giving
/// each a dense index. Edge (i, j) with i != j maps to a stable index used
/// as the MILP variable id.
class EdgeSpace {
 public:
  explicit EdgeSpace(int nodes) : n_(nodes) {}

  int nodes() const { return n_; }
  int count() const { return n_ * (n_ - 1); }

  int index(NodeId from, NodeId to) const {
    // Skip the diagonal: row `from` has n-1 slots.
    return from * (n_ - 1) + (to < from ? to : to - 1);
  }

  std::pair<NodeId, NodeId> edge(int index) const {
    const NodeId from = static_cast<NodeId>(index / (n_ - 1));
    const int slot = index % (n_ - 1);
    const NodeId to = slot < from ? slot : slot + 1;
    return {from, to};
  }

  int reverse(int index) const {
    const auto [from, to] = edge(index);
    return this->index(to, from);
  }

 private:
  int n_;
};

/// Answers the paper's pairwise *conflict* question (Sec. III-A): two edges
/// conflict iff none of the four combinations of their L-route options can
/// be implemented without a waveguide crossing.
///
/// Two storage strategies behind one interface, chosen by problem size:
/// up to kDenseNodeLimit nodes the answers are precomputed into a dense
/// pairs x pairs table (O(1) bit-lookup queries, the historical behavior);
/// past it the table would be Theta(n^4) bits (~2 GiB at n=512), so queries
/// recompute `geom::edges_conflict` from the stored node positions on
/// demand. Both modes return identical answers — the table is just a cache
/// of the same geometry call — so swapping modes never changes a result.
class ConflictOracle {
 public:
  /// Largest node count that still precomputes the dense table (~0.2 s and
  /// ~8 MB at n=128). Past it the table grows as Theta(n^4) — ~1 s and
  /// 42 MB at n=192, ~2 GiB at n=512 — while a solve asks only a sliver of
  /// it, so larger instances always answer from geometry.
  static constexpr int kDenseNodeLimit = 128;

  explicit ConflictOracle(const netlist::Floorplan& floorplan);

  /// True if edges {a1, a2} and {b1, b2} conflict. Direction is irrelevant:
  /// an L-route set is symmetric under endpoint swap.
  bool conflict(NodeId a1, NodeId a2, NodeId b1, NodeId b2) const;

  /// Convenience overload on directed edge indices of `space`.
  bool conflict(const EdgeSpace& space, int edge_a, int edge_b) const;

  int nodes() const { return n_; }
  bool dense() const { return dense_; }

 private:
  int pair_index(NodeId lo, NodeId hi) const {
    // Dense index of the unordered pair {lo, hi}, lo < hi.
    return lo * n_ - lo * (lo + 1) / 2 + (hi - lo - 1);
  }

  int n_ = 0;
  int pairs_ = 0;
  bool dense_ = true;
  std::vector<bool> table_;           // pairs_ x pairs_ symmetric matrix
  std::vector<geom::Point> positions_;  // on-demand mode: query inputs
};

}  // namespace xring::ring
