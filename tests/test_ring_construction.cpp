#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <random>
#include <set>

#include "lshape_reference.hpp"
#include "par/pool.hpp"
#include "ring/builder.hpp"
#include "tsp_reference.hpp"

namespace xring::ring {
namespace {

TEST(EdgeSpace, IndexRoundTrip) {
  const EdgeSpace es(5);
  EXPECT_EQ(es.count(), 20);
  for (int e = 0; e < es.count(); ++e) {
    const auto [from, to] = es.edge(e);
    EXPECT_NE(from, to);
    EXPECT_EQ(es.index(from, to), e);
  }
}

TEST(EdgeSpace, ReverseIsInvolution) {
  const EdgeSpace es(6);
  for (int e = 0; e < es.count(); ++e) {
    EXPECT_NE(es.reverse(e), e);
    EXPECT_EQ(es.reverse(es.reverse(e)), e);
  }
}

TEST(ConflictOracle, SameEdgeNeverConflicts) {
  const auto fp = netlist::Floorplan::grid(2, 2, 10);
  const ConflictOracle oracle(fp);
  EXPECT_FALSE(oracle.conflict(0, 1, 0, 1));
  EXPECT_FALSE(oracle.conflict(0, 1, 1, 0));
}

TEST(ConflictOracle, MatchesDirectGeometryTest) {
  const auto fp = netlist::Floorplan::grid(3, 3, 10);
  const ConflictOracle oracle(fp);
  for (netlist::NodeId a = 0; a < 9; ++a) {
    for (netlist::NodeId b = a + 1; b < 9; ++b) {
      for (netlist::NodeId c = 0; c < 9; ++c) {
        for (netlist::NodeId d = c + 1; d < 9; ++d) {
          if (a == c && b == d) continue;
          const bool direct =
              a == c || a == d || b == c || b == d
                  ? false
                  : geom::reference_edges_conflict(
                        fp.position(a), fp.position(b), fp.position(c),
                        fp.position(d));
          EXPECT_EQ(oracle.conflict(a, b, c, d), direct)
              << a << "," << b << " vs " << c << "," << d;
        }
      }
    }
  }
}

TEST(ConflictOracle, OnDemandMatchesReference) {
  const auto fp = netlist::Floorplan::grid(12, 12, 10);
  const ConflictOracle oracle(fp);
  ASSERT_FALSE(oracle.dense());
  std::mt19937 rng(7);
  std::uniform_int_distribution<netlist::NodeId> node(0, fp.size() - 1);
  int conflicts = 0;
  for (int k = 0; k < 20000; ++k) {
    const netlist::NodeId a = node(rng), b = node(rng), c = node(rng),
                          d = node(rng);
    if (a == b || c == d || (std::min(a, b) == std::min(c, d) &&
                             std::max(a, b) == std::max(c, d))) {
      continue;
    }
    const bool want = geom::reference_edges_conflict(
        fp.position(a), fp.position(b), fp.position(c), fp.position(d));
    conflicts += want;
    EXPECT_EQ(oracle.conflict(a, b, c, d), want)
        << a << "," << b << " vs " << c << "," << d;
  }
  EXPECT_GT(conflicts, 0);
}

/// `n` nodes on distinct cells of a square lattice at 2 mm pitch, each
/// moved by up to ±300 µm per axis (seeded): irregular, with conflicts.
netlist::Floorplan scattered(int n, unsigned seed) {
  std::mt19937 rng(seed);
  const int side = static_cast<int>(std::ceil(std::sqrt(2.0 * n)));
  std::vector<int> cells(side * side);
  std::iota(cells.begin(), cells.end(), 0);
  std::shuffle(cells.begin(), cells.end(), rng);
  std::uniform_int_distribution<geom::Coord> jitter(-300, 300);
  std::vector<netlist::Node> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back({0,
                     {2000 + 2000 * (cells[i] % side) + jitter(rng),
                      2000 + 2000 * (cells[i] / side) + jitter(rng)},
                     ""});
  }
  return netlist::Floorplan(std::move(nodes), 2000 * (side + 2),
                            2000 * (side + 2));
}

using NodePair = std::pair<netlist::NodeId, netlist::NodeId>;

/// Every unordered node pair {lo, hi}, lo < hi, in lexicographic order.
std::vector<NodePair> node_pairs(int n) {
  std::vector<NodePair> pairs;
  for (netlist::NodeId i = 0; i < n; ++i) {
    for (netlist::NodeId j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

/// Every answer of the oracle, both orders of every pair of distinct node
/// pairs: the upper and the lower half of a dense table.
std::vector<bool> all_answers(const ConflictOracle& oracle) {
  const std::vector<NodePair> pairs = node_pairs(oracle.nodes());
  std::vector<bool> out;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (std::size_t q = p + 1; q < pairs.size(); ++q) {
      const auto [a, b] = pairs[p];
      const auto [c, d] = pairs[q];
      out.push_back(oracle.conflict(a, b, c, d));
      out.push_back(oracle.conflict(d, c, b, a));
    }
  }
  return out;
}

/// Holds both orders of every pair of distinct node pairs to `want`.
template <class Want>
void expect_every_answer(const ConflictOracle& oracle, Want want) {
  const std::vector<NodePair> pairs = node_pairs(oracle.nodes());
  long wrong = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (std::size_t q = p + 1; q < pairs.size(); ++q) {
      const auto [a, b] = pairs[p];
      const auto [c, d] = pairs[q];
      const bool expected = want(a, b, c, d);
      const bool upper = oracle.conflict(a, b, c, d);
      const bool lower = oracle.conflict(c, d, a, b);
      if (upper != expected || lower != expected) {
        if (wrong == 0) {
          ADD_FAILURE() << "n = " << oracle.nodes() << ": " << a << "," << b
                        << " vs " << c << "," << d << " want " << expected;
        }
        ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0) << "n = " << oracle.nodes();
}

TEST(ConflictOracle, DenseTableMatchesReferenceAcrossWordsAndBlocks) {
  // 66, 136 and 2 415 node pairs: rows of 2, 3 and 38 words, one to 38
  // 64-row transpose blocks, partial last words and blocks.
  for (const int n : {12, 17, 70}) {
    const netlist::Floorplan fp = scattered(n, static_cast<unsigned>(n));
    const ConflictOracle oracle(fp);
    ASSERT_TRUE(oracle.dense());
    expect_every_answer(oracle, [&](netlist::NodeId a, netlist::NodeId b,
                                    netlist::NodeId c, netlist::NodeId d) {
      return a != c && a != d && b != c && b != d &&
             geom::reference_edges_conflict(fp.position(a), fp.position(b),
                                            fp.position(c), fp.position(d));
    });
  }
}

TEST(ConflictOracle, DenseTableAtTheLimitMatchesGeometry) {
  const int n = ConflictOracle::kDenseNodeLimit;
  const netlist::Floorplan fp = scattered(n, 5);
  const ConflictOracle oracle(fp);
  ASSERT_TRUE(oracle.dense());
  std::vector<std::vector<geom::EdgeLegs>> legs(n);
  for (netlist::NodeId a = 0; a < n; ++a) {
    for (netlist::NodeId b = 0; b < n; ++b) {
      legs[a].emplace_back(fp.position(a), fp.position(b));
    }
  }
  expect_every_answer(oracle, [&](netlist::NodeId a, netlist::NodeId b,
                                  netlist::NodeId c, netlist::NodeId d) {
    return geom::edges_conflict(legs[a][b], legs[c][d]);
  });
}

TEST(ConflictOracle, TableAndHeuristicTourAreJobCountInvariant) {
  for (const int n : {17, 70}) {
    const netlist::Floorplan fp = scattered(n, 11);
    std::vector<bool> answers_at_1;
    std::vector<netlist::NodeId> tour_at_1;
    for (const int jobs : {1, 2, 8}) {
      par::set_jobs(jobs);
      const ConflictOracle oracle(fp);
      const std::vector<bool> answers = all_answers(oracle);
      const std::vector<netlist::NodeId> tour = heuristic_tour(fp, oracle);
      if (jobs == 1) {
        answers_at_1 = answers;
        tour_at_1 = tour;
        continue;
      }
      EXPECT_TRUE(answers == answers_at_1) << "n = " << n << ", jobs " << jobs;
      EXPECT_EQ(tour, tour_at_1) << "n = " << n << ", jobs " << jobs;
    }
    par::set_jobs(0);
  }
}

TEST(ConflictOracle, ConflictsWithMatchesPerEdgeCount) {
  // Dense at 40 (13 words a row) and 70 (38), on demand at 144.
  for (const int n : {40, 70, 144}) {
    const netlist::Floorplan fp = scattered(n, static_cast<unsigned>(n) + 1);
    const ConflictOracle oracle(fp);
    ASSERT_EQ(oracle.dense(), n <= ConflictOracle::kDenseNodeLimit);
    std::mt19937 rng(static_cast<unsigned>(n));
    std::uniform_int_distribution<netlist::NodeId> node(0, n - 1);
    for (const int size : {n, 3 * n}) {
      // A random edge set, inserted in random orientation, then a quarter
      // of it erased again.
      ConflictOracle::EdgeSet set(oracle);
      std::set<NodePair> members;
      while (static_cast<int>(members.size()) < size) {
        const netlist::NodeId u = node(rng), v = node(rng);
        if (u == v || !members.emplace(std::min(u, v), std::max(u, v)).second) {
          continue;
        }
        set.insert(u, v);
      }
      for (int k = 0; k < size / 4; ++k) {
        auto it = members.begin();
        std::advance(it, node(rng) % members.size());
        set.erase(it->second, it->first);
        members.erase(it);
      }
      // Queries: every member, then random edges and degenerate ones.
      std::vector<NodePair> queries(members.begin(), members.end());
      for (int k = 0; k < 400; ++k) queries.emplace_back(node(rng), node(rng));
      int conflicts = 0;
      for (const auto& [a, b] : queries) {
        int want = 0;
        for (const auto& [u, v] : members) want += oracle.conflict(a, b, u, v);
        conflicts += want;
        ASSERT_EQ(oracle.conflicts_with(set, a, b), want)
            << "n = " << n << ", set of " << members.size() << ", query "
            << a << "," << b;
      }
      EXPECT_GT(conflicts, 0) << "n = " << n;
    }
  }
}

TEST(Tour, ArcLengthsAndHops) {
  const auto fp = netlist::Floorplan::grid(1, 4, 10);  // collinear 4 nodes
  const Tour t({0, 1, 2, 3}, &fp);
  EXPECT_EQ(t.total_length(), 10 + 10 + 10 + 30);
  EXPECT_EQ(t.hops_cw(0, 2), 2);
  EXPECT_EQ(t.hops_cw(2, 0), 2);
  EXPECT_EQ(t.arc_length_cw(0, 2), 20);
  EXPECT_EQ(t.arc_length_ccw(0, 2), 40);
  EXPECT_EQ(t.arc_length_cw(3, 0), 30);
}

TEST(Tour, ArcIdentity) {
  const auto fp = netlist::Floorplan::standard(8);
  const Tour t({0, 1, 2, 3, 7, 6, 5, 4}, &fp);
  for (netlist::NodeId a = 0; a < 8; ++a) {
    for (netlist::NodeId b = 0; b < 8; ++b) {
      if (a == b) continue;
      EXPECT_EQ(t.arc_length_cw(a, b) + t.arc_length_ccw(a, b),
                t.total_length());
      EXPECT_EQ(t.arc_length_cw(a, b), t.arc_length_ccw(b, a));
    }
  }
}

TEST(Tour, HopsOnArc) {
  const auto fp = netlist::Floorplan::grid(1, 4, 10);
  const Tour t({0, 1, 2, 3}, &fp);
  EXPECT_EQ(t.hops_on_arc_cw(1, 3), (std::vector<int>{1, 2}));
  EXPECT_EQ(t.hops_on_arc_cw(3, 1), (std::vector<int>{3, 0}));
}

TEST(Tour, RejectsDuplicatesAndTiny) {
  EXPECT_THROW(Tour({0, 1}), std::invalid_argument);
  EXPECT_THROW(Tour({0, 1, 1}), std::invalid_argument);
}

TEST(ExtractCycles, SplitsPermutationIntoCycles) {
  // 0->1->0 and 2->3->4->2.
  const std::vector<std::pair<netlist::NodeId, netlist::NodeId>> edges = {
      {0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}};
  const auto cycles = extract_cycles(edges, 5);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0].size() + cycles[1].size(), 5u);
}

TEST(ExtractCycles, RejectsDoubleOutDegree) {
  EXPECT_THROW(extract_cycles({{0, 1}, {0, 2}}, 3), std::invalid_argument);
}

TEST(MergeCycles, ProducesSingleCycleVisitingAll) {
  const auto fp = netlist::Floorplan::standard(16);
  const ConflictOracle oracle(fp);
  // Four 4-cycles over the 4x4 grid (the typical MILP sub-cycle outcome).
  std::vector<Cycle> cycles = {
      {0, 1, 5, 4}, {2, 3, 7, 6}, {8, 9, 13, 12}, {10, 11, 15, 14}};
  const Cycle merged = merge_cycles(cycles, fp, oracle);
  ASSERT_EQ(merged.size(), 16u);
  std::vector<bool> seen(16, false);
  for (const netlist::NodeId v : merged) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(MergeCycles, SingleCycleIsReturnedVerbatim) {
  const auto fp = netlist::Floorplan::standard(8);
  const ConflictOracle oracle(fp);
  const Cycle c = {0, 1, 2, 3, 7, 6, 5, 4};
  EXPECT_EQ(merge_cycles({c}, fp, oracle), c);
}

TEST(Heuristic, ToursAreValidPermutations) {
  for (const int n : {8, 16}) {
    const auto fp = netlist::Floorplan::standard(n);
    const ConflictOracle oracle(fp);
    const auto tour = heuristic_tour(fp, oracle);
    ASSERT_EQ(static_cast<int>(tour.size()), n);
    std::vector<bool> seen(n, false);
    for (const netlist::NodeId v : tour) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
}

TEST(Heuristic, GridTourIsConflictFreeAndTight) {
  const auto fp = netlist::Floorplan::standard(16);
  const ConflictOracle oracle(fp);
  const auto tour = heuristic_tour(fp, oracle);
  EXPECT_EQ(tour_conflicts(tour, oracle), 0);
  // A Hamiltonian cycle of unit edges exists on the 4x4 grid: 32 mm.
  EXPECT_LE(tour_length(tour, fp), 36000);
}

TEST(Builder, EightNodeOptimalPerimeter) {
  const auto fp = netlist::Floorplan::standard(8);
  const RingBuildResult r = build_ring(fp);
  EXPECT_EQ(r.mip_status, milp::MipStatus::kOptimal);
  // 2x4 grid perimeter: 2 * (3 + 1) * 2 mm.
  EXPECT_EQ(r.geometry.tour.total_length(), 16000);
  EXPECT_EQ(r.geometry.crossings, 0);
}

TEST(Builder, SixteenNodeOptimalHamiltonianCycle) {
  const auto fp = netlist::Floorplan::standard(16);
  const RingBuildResult r = build_ring(fp);
  EXPECT_EQ(r.mip_status, milp::MipStatus::kOptimal);
  EXPECT_EQ(r.geometry.tour.total_length(), 32000);  // all unit edges
  EXPECT_EQ(r.geometry.crossings, 0);
}

TEST(Builder, LazyAndExhaustiveConflictModesAgree) {
  // On a small irregular instance the lazy-mode ring is exactly as long as
  // the optimum of the paper-literal model (every Eq. 3 row up front).
  std::vector<netlist::Node> nodes;
  const geom::Point pts[] = {{0, 0}, {3000, 500}, {5000, 2500},
                             {2500, 4000}, {500, 2600}, {4200, 4800}};
  for (const auto& p : pts) nodes.push_back({0, p, ""});
  const netlist::Floorplan fp(std::move(nodes), 6000, 6000);
  const ConflictOracle oracle(fp);

  RingBuildOptions lazy;
  lazy.conflict_mode = ConflictMode::kLazy;
  const auto a = build_ring(fp, oracle, lazy);
  const milp::MipResult full =
      milp::solve(reference::paper_literal_model(fp, oracle), {});
  ASSERT_EQ(full.status, milp::MipStatus::kOptimal);
  EXPECT_EQ(a.geometry.tour.total_length(), std::llround(full.objective));
}

TEST(Builder, HeuristicOnlyModeWorks) {
  const auto fp = netlist::Floorplan::standard(16);
  RingBuildOptions opt;
  opt.use_milp = false;
  const RingBuildResult r = build_ring(fp, opt);
  EXPECT_EQ(static_cast<int>(r.geometry.tour.order().size()), 16);
  EXPECT_EQ(r.geometry.crossings, 0);
}

TEST(Builder, IrregularLayoutStaysCrossingFree) {
  std::vector<netlist::Node> nodes;
  const geom::Point pts[] = {{0, 0},       {4000, 800},  {7500, 300},
                             {9000, 3500}, {6500, 6000}, {8800, 8200},
                             {4200, 9000}, {900, 7800},  {300, 4200},
                             {3000, 4600}};
  for (const auto& p : pts) nodes.push_back({0, p, ""});
  const netlist::Floorplan fp(std::move(nodes), 10000, 10000);
  const RingBuildResult r = build_ring(fp);
  EXPECT_TRUE(r.mip_status == milp::MipStatus::kOptimal ||
              r.mip_status == milp::MipStatus::kFeasible);
  EXPECT_EQ(r.geometry.crossings, 0);
  EXPECT_EQ(r.geometry.polyline.self_crossings(), 0);
}

/// Property sweep: rings over growing grids are permutations, conflict-free,
/// and no longer than the heuristic bound.
class BuilderGrid : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BuilderGrid, ValidRing) {
  const auto [rows, cols] = GetParam();
  const auto fp = netlist::Floorplan::grid(rows, cols, 1000);
  const ConflictOracle oracle(fp);
  const RingBuildResult r = build_ring(fp, oracle, {});
  const int n = rows * cols;
  ASSERT_EQ(static_cast<int>(r.geometry.tour.order().size()), n);
  EXPECT_EQ(r.geometry.crossings, 0);
  EXPECT_LE(r.geometry.tour.total_length(),
            tour_length(heuristic_tour(fp, oracle), fp));
}

INSTANTIATE_TEST_SUITE_P(Grids, BuilderGrid,
                         ::testing::Values(std::make_pair(2, 2),
                                           std::make_pair(2, 3),
                                           std::make_pair(3, 3),
                                           std::make_pair(2, 5),
                                           std::make_pair(3, 4),
                                           std::make_pair(4, 4)));

}  // namespace
}  // namespace xring::ring
