// Scale machinery of the ring-construction MILP: the separated
// (cutting-plane) conflict mode, reflective symmetry breaking, and the
// budgeted LNS — each pinned against the paper-literal formulation
// (tsp_reference.hpp) or an exact reference implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "netlist/floorplan.hpp"
#include "ring/builder.hpp"
#include "ring/heuristic.hpp"
#include "ring/tsp_model.hpp"
#include "tsp_reference.hpp"

namespace xring {
namespace {

using netlist::Floorplan;
using netlist::Node;
using netlist::NodeId;

/// Deterministic congruential stream for seeded-random layouts.
class Lcg {
 public:
  explicit Lcg(unsigned seed) : state_(seed * 2654435761u + 12345u) {}
  unsigned next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_ >> 8;
  }

 private:
  unsigned state_;
};

/// `n` nodes on distinct lattice positions of a coarse grid, seeded.
Floorplan random_floorplan(int n, unsigned seed) {
  Lcg rng(seed);
  std::vector<std::pair<int, int>> cells;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) cells.emplace_back(x, y);
  }
  // Fisher-Yates with the seeded stream, then take the first n cells.
  for (std::size_t i = cells.size() - 1; i > 0; --i) {
    std::swap(cells[i], cells[rng.next() % (i + 1)]);
  }
  std::vector<Node> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(
        {i, {cells[i].first * 1500, cells[i].second * 1500}, ""});
  }
  return Floorplan(std::move(nodes), 8 * 1500, 8 * 1500);
}

// ---------------------------------------------------------------------------
// Conflict-mode equivalence and symmetry breaking

milp::MipResult solve_tsp(const Floorplan& fp, const ring::ConflictOracle& oracle,
                          ring::ConflictMode mode, bool symmetry) {
  ring::TspModel tsp(fp, oracle, mode);
  const std::vector<NodeId> heuristic = ring::heuristic_tour(fp, oracle);
  if (symmetry) tsp.add_symmetry_breaking(heuristic);
  milp::BnbOptions bnb;
  bnb.time_limit_seconds = 60.0;
  bnb.lazy_handler = tsp.lazy_handler();
  bnb.cut_separator = tsp.cut_separator();
  if (ring::tour_conflicts(heuristic, oracle) == 0) {
    bnb.warm_start = tsp.warm_start_from(heuristic);
  }
  return milp::solve(tsp.model(), bnb);
}

/// The reference optimum: the paper-literal model (every Eq. 3 row up
/// front), no lazy handler or separator, and solve_tsp's warm start.
milp::MipResult solve_paper_literal(const Floorplan& fp,
                                    const ring::ConflictOracle& oracle) {
  const ring::TspModel tsp(fp, oracle, ring::ConflictMode::kLazy);
  const std::vector<NodeId> heuristic = ring::heuristic_tour(fp, oracle);
  milp::BnbOptions bnb;
  bnb.time_limit_seconds = 60.0;
  if (ring::tour_conflicts(heuristic, oracle) == 0) {
    bnb.warm_start = tsp.warm_start_from(heuristic);
  }
  return milp::solve(ring::reference::paper_literal_model(fp, oracle), bnb);
}

TEST(ConflictModes, AllThreeModesAgreeOnTheOptimum) {
  std::vector<Floorplan> layouts;
  layouts.push_back(Floorplan::standard(8));
  layouts.push_back(Floorplan::standard(16));
  layouts.push_back(Floorplan::grid(4, 4, 2000));
  for (unsigned seed = 1; seed <= 3; ++seed) {
    layouts.push_back(random_floorplan(10, seed));
  }
  {
    // The irregular layout of Builder.LazyAndExhaustiveConflictModesAgree.
    std::vector<Node> nodes;
    const geom::Point pts[] = {{0, 0},       {3000, 500},  {5000, 2500},
                               {2500, 4000}, {500, 2600}, {4200, 4800}};
    for (const auto& p : pts) nodes.push_back({0, p, ""});
    layouts.emplace_back(std::move(nodes), 6000, 6000);
  }
  for (const Floorplan& fp : layouts) {
    const ring::ConflictOracle oracle(fp);
    const milp::MipResult ex = solve_paper_literal(fp, oracle);
    const milp::MipResult lazy =
        solve_tsp(fp, oracle, ring::ConflictMode::kLazy, false);
    const milp::MipResult sep =
        solve_tsp(fp, oracle, ring::ConflictMode::kSeparated, false);
    ASSERT_EQ(ex.status, milp::MipStatus::kOptimal);
    ASSERT_EQ(lazy.status, milp::MipStatus::kOptimal);
    ASSERT_EQ(sep.status, milp::MipStatus::kOptimal);
    EXPECT_NEAR(lazy.objective, ex.objective, 1e-9);
    EXPECT_NEAR(sep.objective, ex.objective, 1e-9);
  }
}

TEST(Symmetry, BreakingPreservesTheTourExactly) {
  // With the orientation row aligned to the heuristic warm start, the
  // returned selection must be byte-identical with and without the row on
  // the paper's layouts (the warm start is optimal there, so both searches
  // return it verbatim) — the downstream ring direction is untouched.
  for (const int n : {8, 16, 32}) {
    const Floorplan fp = Floorplan::standard(n);
    const ring::ConflictOracle oracle(fp);
    const milp::MipResult plain =
        solve_tsp(fp, oracle, ring::ConflictMode::kLazy, false);
    const milp::MipResult broken =
        solve_tsp(fp, oracle, ring::ConflictMode::kLazy, true);
    ASSERT_EQ(plain.status, milp::MipStatus::kOptimal);
    ASSERT_EQ(broken.status, milp::MipStatus::kOptimal);
    EXPECT_NEAR(broken.objective, plain.objective, 1e-9);
    EXPECT_EQ(plain.x, broken.x) << "n = " << n;
  }
}

TEST(Symmetry, RejectsTheReversedWarmStart) {
  // The orientation row must make the mirror of the reference tour
  // infeasible: warm-starting with it, the solver may not return it.
  const Floorplan fp = Floorplan::standard(8);
  const ring::ConflictOracle oracle(fp);
  ring::TspModel tsp(fp, oracle, ring::ConflictMode::kLazy);
  const std::vector<NodeId> heuristic = ring::heuristic_tour(fp, oracle);
  tsp.add_symmetry_breaking(heuristic);
  std::vector<NodeId> reversed(heuristic.rbegin(), heuristic.rend());
  milp::BnbOptions bnb;
  bnb.lazy_handler = tsp.lazy_handler();
  bnb.warm_start = tsp.warm_start_from(reversed);
  const milp::MipResult r = milp::solve(tsp.model(), bnb);
  ASSERT_EQ(r.status, milp::MipStatus::kOptimal);
  EXPECT_NE(r.x, *bnb.warm_start);
  // ... but the un-reversed optimum is still reachable at the same length.
  EXPECT_NEAR(r.objective,
              solve_tsp(fp, oracle, ring::ConflictMode::kLazy, false).objective,
              1e-9);
}

TEST(TspCuts, SeparatorRowsHoldOnTheExhaustiveOptimum) {
  // Rows separated from any fractional point must be valid for the true
  // optimum (they are rows of the paper-literal formulation).
  const Floorplan fp = random_floorplan(9, 7);
  const ring::ConflictOracle oracle(fp);
  ring::TspModel tsp(fp, oracle, ring::ConflictMode::kSeparated);
  const milp::MipResult opt = solve_paper_literal(fp, oracle);
  ASSERT_EQ(opt.status, milp::MipStatus::kOptimal);

  // A synthetic fractional point: the optimum diluted plus mass on a
  // conflicting pair, to give the separator something to cut.
  std::vector<double> frac(opt.x);
  for (double& v : frac) v = 0.4 + 0.4 * v;
  const auto cuts = tsp.cut_separator()(frac);
  for (const milp::Constraint& c : cuts) {
    double lhs = 0.0;
    for (const auto& [v, a] : c.terms) lhs += opt.x[v] * a;
    if (c.sense == milp::Sense::kLe) {
      EXPECT_LE(lhs, c.rhs + 1e-9);
    } else if (c.sense == milp::Sense::kGe) {
      EXPECT_GE(lhs, c.rhs - 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental two_opt / or_opt versus full-recompute references

/// Conflicting tour-edge pairs, one conflict() query per pair: the count
/// the production path takes from ConflictOracle::conflicts_with instead.
int brute_conflicts(const std::vector<NodeId>& order,
                    const ring::ConflictOracle& oracle) {
  const int n = static_cast<int>(order.size());
  int conflicts = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      conflicts += oracle.conflict(order[i], order[(i + 1) % n], order[j],
                                   order[(j + 1) % n]);
    }
  }
  return conflicts;
}

geom::Coord penalized(const std::vector<NodeId>& order, const Floorplan& fp,
                      const ring::ConflictOracle& oracle) {
  return ring::tour_length(order, fp) +
         ring::kConflictPenalty * brute_conflicts(order, oracle);
}

/// The pre-optimization two_opt, verbatim: full penalized-cost recompute
/// per candidate move, first improvement.
void reference_two_opt(std::vector<NodeId>& order, const Floorplan& fp,
                       const ring::ConflictOracle& oracle) {
  const int n = static_cast<int>(order.size());
  if (n < 3) return;
  geom::Coord cost = penalized(order, fp, oracle);
  for (int round = 0; round < ring::kTwoOptRounds; ++round) {
    bool improved = false;
    for (int i = 0; i < n - 1; ++i) {
      for (int j = i + 1; j < n; ++j) {
        std::vector<NodeId> candidate = order;
        std::reverse(candidate.begin() + i, candidate.begin() + j + 1);
        const geom::Coord c = penalized(candidate, fp, oracle);
        if (c < cost) {
          order = std::move(candidate);
          cost = c;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
}

/// or_opt by full re-evaluation: the same scan (segment length, segment
/// start, insertion edge, forward before reversed), each candidate built
/// as a new tour and scored by its full penalized cost. An accepted splice
/// ends the insertion scan of its segment, and the scan goes on with the
/// next segment start of the spliced tour.
void reference_or_opt(std::vector<NodeId>& order, const Floorplan& fp,
                      const ring::ConflictOracle& oracle) {
  const int n = static_cast<int>(order.size());
  if (n < 5) return;
  geom::Coord cost = penalized(order, fp, oracle);
  for (int round = 0; round < ring::kOrOptRounds; ++round) {
    bool improved = false;
    for (int len = 1; len <= 3 && len <= n - 4; ++len) {
      for (int i = 0; i + len <= n; ++i) {
        bool moved = false;
        for (int j = 0; j < n && !moved; ++j) {
          // The insertion edge (order[j], order[j+1]) must survive the cut.
          if ((j - (i - 1) + n) % n <= len) continue;
          for (const bool reversed : {false, true}) {
            if (len == 1 && reversed) continue;
            std::vector<NodeId> seg(order.begin() + i,
                                    order.begin() + i + len);
            if (reversed) std::reverse(seg.begin(), seg.end());
            std::vector<NodeId> candidate = order;
            candidate.erase(candidate.begin() + i, candidate.begin() + i + len);
            const int at = j >= i + len ? j - len : j;
            candidate.insert(candidate.begin() + at + 1, seg.begin(),
                             seg.end());
            const geom::Coord c = penalized(candidate, fp, oracle);
            if (c < cost) {
              order = std::move(candidate);
              cost = c;
              improved = true;
              moved = true;
              break;
            }
          }
        }
      }
    }
    if (!improved) break;
  }
}

/// A seeded shuffle of 0..n-1, so the runs start from varied (bad) tours.
std::vector<NodeId> shuffled_tour(int n, unsigned seed) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Lcg rng(seed);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next() % (i + 1)]);
  }
  return order;
}

/// Holds `improve` to `reference` move for move from shuffled tours: on
/// the 12-node layouts (two words a conflict-table row) and on 40-node
/// ones (13 words a row). The start tours carry conflicts, so the conflict
/// deltas decide moves; enough seeds that a wrong term in a delta flips a
/// decision somewhere.
template <class Improve, class Reference>
void expect_move_for_move(Improve improve, Reference reference,
                          unsigned seeds_at_12, unsigned seeds_at_40) {
  int conflicted_starts = 0;
  for (const int n : {12, 40}) {
    const unsigned seeds = n == 12 ? seeds_at_12 : seeds_at_40;
    for (unsigned seed = 1; seed <= seeds; ++seed) {
      const Floorplan fp = random_floorplan(n, seed);
      const ring::ConflictOracle oracle(fp);
      std::vector<NodeId> a = shuffled_tour(n, seed + 100);
      const int start_conflicts = brute_conflicts(a, oracle);
      EXPECT_EQ(ring::tour_conflicts(a, oracle), start_conflicts);
      conflicted_starts += start_conflicts > 0;
      std::vector<NodeId> b = a;
      improve(a, fp, oracle);
      reference(b, fp, oracle);
      EXPECT_EQ(a, b) << "n " << n << " seed " << seed;
      EXPECT_EQ(ring::tour_conflicts(a, oracle), brute_conflicts(a, oracle));
    }
  }
  EXPECT_GT(conflicted_starts, 0);
}

TEST(TwoOpt, IncrementalMatchesReferenceMoveForMove) {
  expect_move_for_move(ring::two_opt, reference_two_opt, 8, 4);
}

TEST(OrOpt, IncrementalMatchesReferenceMoveForMove) {
  expect_move_for_move(ring::or_opt, reference_or_opt, 24, 4);
}

// ---------------------------------------------------------------------------
// Budgeted LNS

TEST(Lns, DeterministicAndConflictFreeOnGrids) {
  const Floorplan fp = Floorplan::grid(6, 8, 2000);
  const ring::ConflictOracle oracle(fp);
  const ring::LnsResult a = ring::lns_tour(fp, oracle, 60.0);
  const ring::LnsResult b = ring::lns_tour(fp, oracle, 60.0);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.length_um, b.length_um);
  EXPECT_EQ(a.repairs_accepted, b.repairs_accepted);
  EXPECT_EQ(a.conflicts, 0);
  EXPECT_FALSE(a.budget_exhausted);
  // A valid permutation of all nodes.
  std::vector<NodeId> sorted = a.order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<NodeId> expect(fp.size());
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(sorted, expect);
  // Certified against the degree bound: the grid optimum is the bound.
  EXPECT_EQ(a.length_um, ring::tour_lower_bound(fp));
}

TEST(Lns, RepairsImproveARandomLayout) {
  // On irregular layouts the polish alone is generally not optimal; the
  // budgeted build must never be worse than the plain heuristic and must
  // stay conflict-free.
  for (unsigned seed = 2; seed <= 4; ++seed) {
    const Floorplan fp = random_floorplan(14, seed);
    const ring::ConflictOracle oracle(fp);
    const ring::LnsResult r = ring::lns_tour(fp, oracle, 60.0);
    EXPECT_EQ(r.conflicts, 0) << "seed " << seed;
    EXPECT_GE(r.length_um, ring::tour_lower_bound(fp));
    EXPECT_GT(r.repairs_attempted, 0);
  }
}

TEST(Builder, BudgetedModeReportsACertifiedGap) {
  const Floorplan fp = Floorplan::grid(4, 8, 2000);
  ring::RingBuildOptions opt;
  opt.lns_budget_seconds = 60.0;
  const ring::RingBuildResult r = ring::build_ring(fp, opt);
  EXPECT_EQ(r.mip_status, milp::MipStatus::kFeasible);
  EXPECT_GT(r.lower_bound_um, 0);
  EXPECT_GE(r.certified_gap, 0.0);
  EXPECT_LE(r.certified_gap, 0.05);
  EXPECT_EQ(r.geometry.crossings, 0);
}

TEST(Builder, ExactModeGapIsZeroAtTheProvenOptimum) {
  const Floorplan fp = Floorplan::standard(16);
  ring::RingBuildOptions opt;
  opt.conflict_mode = ring::ConflictMode::kSeparated;
  opt.or_opt_polish = true;
  const ring::RingBuildResult r = ring::build_ring(fp, opt);
  ASSERT_EQ(r.mip_status, milp::MipStatus::kOptimal);
  EXPECT_GE(r.lower_bound_um, ring::tour_lower_bound(fp));
  if (r.subcycles_before_merge == 1) {
    EXPECT_EQ(r.certified_gap, 0.0);
  }
}

}  // namespace
}  // namespace xring
