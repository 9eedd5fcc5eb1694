#pragma once

#include <cstdint>
#include <utility>
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
/// pairs x pairs bit table (O(1) bit-lookup queries), built on the global
/// pool; past it the table would be Theta(n^4) bits (~2 GiB at n=512), so
/// queries recompute `geom::edges_conflict` from the stored node positions
/// on demand. Both modes return identical answers — the table is just a
/// cache of the same geometry call — so swapping modes never changes a
/// result, and the table is the same at every pool size.
class ConflictOracle {
 public:
  /// Largest node count that still precomputes the dense table (8.3 MB at
  /// n=128, built in ~0.25 s on one thread and ~0.08 s on a 4-job pool).
  /// Past it the table grows as Theta(n^4) — 42 MB at n=192, ~2 GiB at
  /// n=512 — while a solve asks only a sliver of it, so larger instances
  /// always answer from geometry.
  static constexpr int kDenseNodeLimit = 128;

  explicit ConflictOracle(const netlist::Floorplan& floorplan);

  /// True if edges {a1, a2} and {b1, b2} conflict. Direction is irrelevant:
  /// an L-route set is symmetric under endpoint swap.
  bool conflict(NodeId a1, NodeId a2, NodeId b1, NodeId b2) const;

  /// Convenience overload on directed edge indices of `space`.
  bool conflict(const EdgeSpace& space, int edge_a, int edge_b) const;

  /// A set of distinct undirected edges, held in the form conflicts_with
  /// counts against: a bit per node pair in dense mode, the member edges
  /// with their leg records in on-demand mode. Insert only an edge that is
  /// not a member and erase only one that is; a degenerate edge {v, v} is
  /// ignored. Refers to its oracle, which must outlive it.
  class EdgeSet {
   public:
    explicit EdgeSet(const ConflictOracle& oracle);

    void insert(NodeId a, NodeId b);
    void erase(NodeId a, NodeId b);

   private:
    friend class ConflictOracle;

    const ConflictOracle* oracle_;
    std::vector<std::uint64_t> bits_;  // dense mode: bit q = pair q
    std::vector<std::pair<NodeId, NodeId>> edges_;  // on-demand: (lo, hi)
    std::vector<geom::EdgeLegs> legs_;              // on-demand: of edges_
  };

  /// Number of members {u, v} of `set` with conflict(a, b, u, v): the
  /// popcount of edge {a, b}'s table row against the set's bits in dense
  /// mode, one geometry test per member in on-demand mode.
  int conflicts_with(const EdgeSet& set, NodeId a, NodeId b) const;

  int nodes() const { return n_; }
  bool dense() const { return dense_; }

 private:
  int pair_index(NodeId lo, NodeId hi) const {
    // Dense index of the unordered pair {lo, hi}, lo < hi.
    return lo * n_ - lo * (lo + 1) / 2 + (hi - lo - 1);
  }

  int n_ = 0;
  int pairs_ = 0;
  int words_ = 0;  // dense mode: 64-bit words per table row
  bool dense_ = true;
  // Dense mode: pairs_ rows of words_ words; bit q % 64 of word q / 64 of
  // row p is set iff pairs p and q conflict (symmetric, zero diagonal).
  std::vector<std::uint64_t> table_;
  std::vector<geom::Point> positions_;  // on-demand mode: query inputs
};

}  // namespace xring::ring
