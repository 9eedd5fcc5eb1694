#include "ring/conflict.hpp"

#include <algorithm>
#include <bit>

#include "par/pool.hpp"

namespace xring::ring {

namespace {

/// Table rows per parallel_for chunk of the upper-triangle fill: the
/// paper's 8-node table is one chunk, and an n=96 table 72 of them.
constexpr long kFillGrain = 64;

/// In-place transpose of a 64 x 64 bit block (bit j of word i moves to bit
/// i of word j): swaps the off-diagonal halves of ever smaller sub-blocks,
/// 32 x 32 down to 1 x 1 (Hacker's Delight, 7-3).
void transpose64(std::uint64_t* block) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (int width = 32; width != 0; width >>= 1, mask ^= mask << width) {
    for (int k = 0; k < 64; k = ((k | width) + 1) & ~width) {
      const std::uint64_t t = ((block[k] >> width) ^ block[k | width]) & mask;
      block[k] ^= t << width;
      block[k | width] ^= t;
    }
  }
}

}  // namespace

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
  words_ = (pairs_ + 63) / 64;
  table_.assign(static_cast<std::size_t>(pairs_) * words_, 0);

  // The leg record of every unordered node pair, in pair_index order.
  std::vector<geom::EdgeLegs> legs;
  legs.reserve(pairs_);
  for (NodeId i = 0; i < n_; ++i) {
    for (NodeId j = i + 1; j < n_; ++j) {
      legs.emplace_back(floorplan.position(i), floorplan.position(j));
    }
  }

  par::ThreadPool& pool = par::global_pool();
  const auto word = [this](long row, long w) -> std::uint64_t& {
    return table_[static_cast<std::size_t>(row) * words_ + w];
  };
  // Upper triangle (bits q > p), one task per row: every geometry test runs
  // once, and each row is written by the task that owns it.
  par::parallel_for(
      pool, 0, pairs_,
      [&](long p) {
        for (long q = p + 1; q < pairs_; ++q) {
          if (geom::edges_conflict(legs[p], legs[q])) {
            word(p, q / 64) |= std::uint64_t{1} << (q % 64);
          }
        }
      },
      kFillGrain);
  // Lower half from 64 x 64 block transposes of the upper half. Block-row J
  // (rows 64J .. 64J+63) writes only its own words I <= J, each the
  // transpose of block (I, J) of the upper half, which no task writes — the
  // diagonal block is read whole before it is written. The heaviest
  // block-rows (the most blocks) go first.
  par::parallel_for(pool, 0, words_, [&](long k) {
    const long J = words_ - 1 - k;
    const long rows_j = std::min<long>(64, pairs_ - 64 * J);
    std::uint64_t block[64];
    for (long I = 0; I <= J; ++I) {
      const long rows_i = std::min<long>(64, pairs_ - 64 * I);
      for (long r = 0; r < 64; ++r) {
        block[r] = r < rows_i ? word(64 * I + r, J) : 0;
      }
      transpose64(block);
      for (long r = 0; r < rows_j; ++r) word(64 * J + r, I) |= block[r];
    }
  });
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
  return (table_[static_cast<std::size_t>(p) * words_ + q / 64] >> (q % 64)) &
         1;
}

bool ConflictOracle::conflict(const EdgeSpace& space, int edge_a,
                              int edge_b) const {
  const auto [a1, a2] = space.edge(edge_a);
  const auto [b1, b2] = space.edge(edge_b);
  return conflict(a1, a2, b1, b2);
}

ConflictOracle::EdgeSet::EdgeSet(const ConflictOracle& oracle)
    : oracle_(&oracle) {
  if (oracle.dense_) bits_.assign(oracle.words_, 0);
}

void ConflictOracle::EdgeSet::insert(NodeId a, NodeId b) {
  if (a == b) return;
  const NodeId lo = std::min(a, b), hi = std::max(a, b);
  if (oracle_->dense_) {
    const int q = oracle_->pair_index(lo, hi);
    bits_[q / 64] |= std::uint64_t{1} << (q % 64);
    return;
  }
  edges_.emplace_back(lo, hi);
  legs_.emplace_back(oracle_->positions_[lo], oracle_->positions_[hi]);
}

void ConflictOracle::EdgeSet::erase(NodeId a, NodeId b) {
  if (a == b) return;
  const NodeId lo = std::min(a, b), hi = std::max(a, b);
  if (oracle_->dense_) {
    const int q = oracle_->pair_index(lo, hi);
    bits_[q / 64] &= ~(std::uint64_t{1} << (q % 64));
    return;
  }
  const auto it = std::find(edges_.begin(), edges_.end(), std::pair(lo, hi));
  if (it == edges_.end()) return;
  const auto k = it - edges_.begin();
  edges_[k] = edges_.back();
  legs_[k] = legs_.back();
  edges_.pop_back();
  legs_.pop_back();
}

int ConflictOracle::conflicts_with(const EdgeSet& set, NodeId a,
                                   NodeId b) const {
  if (a == b) return 0;
  const NodeId lo = std::min(a, b), hi = std::max(a, b);
  int count = 0;
  if (!dense_) {
    // The member itself, and every member sharing an endpoint, fails the
    // predicate's shared-endpoint test, as conflict() answers for them.
    const geom::EdgeLegs legs(positions_[lo], positions_[hi]);
    for (const geom::EdgeLegs& member : set.legs_) {
      count += geom::edges_conflict(legs, member);
    }
    return count;
  }
  // A tour's set holds n of the n(n-1)/2 pairs, so most words of the AND
  // are zero; skipping them is cheaper than counting them.
  const std::uint64_t* row =
      &table_[static_cast<std::size_t>(pair_index(lo, hi)) * words_];
  for (int w = 0; w < words_; ++w) {
    const std::uint64_t x = row[w] & set.bits_[w];
    if (x != 0) count += std::popcount(x);
  }
  return count;
}

}  // namespace xring::ring
