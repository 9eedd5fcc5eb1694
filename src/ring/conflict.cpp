#include "ring/conflict.hpp"

#include <algorithm>

namespace xring::ring {

ConflictOracle::ConflictOracle(const netlist::Floorplan& floorplan)
    : n_(floorplan.size()), dense_(floorplan.size() <= kDenseNodeLimit) {
  pairs_ = n_ * (n_ - 1) / 2;
  if (!dense_) {
    // On-demand mode: keep only the node positions; every query recomputes
    // the same geometry predicate the dense table would have cached.
    positions_.reserve(n_);
    for (NodeId v = 0; v < n_; ++v) positions_.push_back(floorplan.position(v));
    return;
  }
  table_.assign(static_cast<std::size_t>(pairs_) * pairs_, false);

  // The leg record of every unordered node pair, in pair_index order.
  std::vector<geom::EdgeLegs> legs;
  legs.reserve(pairs_);
  for (NodeId i = 0; i < n_; ++i) {
    for (NodeId j = i + 1; j < n_; ++j) {
      legs.emplace_back(floorplan.position(i), floorplan.position(j));
    }
  }

  for (int p = 0; p < pairs_; ++p) {
    for (int q = p + 1; q < pairs_; ++q) {
      if (!geom::edges_conflict(legs[p], legs[q])) continue;
      table_[static_cast<std::size_t>(p) * pairs_ + q] = true;
      table_[static_cast<std::size_t>(q) * pairs_ + p] = true;
    }
  }
}

bool ConflictOracle::conflict(NodeId a1, NodeId a2, NodeId b1, NodeId b2) const {
  if (a1 == a2 || b1 == b2) return false;
  const NodeId alo = std::min(a1, a2), ahi = std::max(a1, a2);
  const NodeId blo = std::min(b1, b2), bhi = std::max(b1, b2);
  if (alo == blo && ahi == bhi) return false;  // same undirected edge
  if (!dense_) {
    return geom::edges_conflict(positions_[alo], positions_[ahi],
                                positions_[blo], positions_[bhi]);
  }
  const int p = pair_index(alo, ahi);
  const int q = pair_index(blo, bhi);
  return table_[static_cast<std::size_t>(p) * pairs_ + q];
}

bool ConflictOracle::conflict(const EdgeSpace& space, int edge_a,
                              int edge_b) const {
  const auto [a1, a2] = space.edge(edge_a);
  const auto [b1, b2] = space.edge(edge_b);
  return conflict(a1, a2, b1, b2);
}

}  // namespace xring::ring
