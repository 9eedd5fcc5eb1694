#pragma once

#include <vector>

#include "ring/conflict.hpp"

namespace xring::ring {

/// Penalty (µm) charged per conflicting edge pair in a tour; large enough
/// that the 2-opt phase trades length for conflict removal.
constexpr geom::Coord kConflictPenalty = 1'000'000;
/// Round caps of two_opt and or_opt; a round is one pass over every move.
constexpr int kTwoOptRounds = 64;
constexpr int kOrOptRounds = 32;

/// Conflict-aware nearest-neighbour + 2-opt tour construction (best of all
/// nearest-neighbour start nodes, run on the global pool and reduced in
/// start order: the lowest penalized cost, ties to the lowest start, so the
/// tour is the same at every pool size). Serves two purposes: the warm
/// start that lets branch & bound prune from node one, and the fallback
/// result when a caller runs with the MILP disabled (the ablation benches
/// compare both).
std::vector<NodeId> heuristic_tour(const netlist::Floorplan& floorplan,
                                   const ConflictOracle& oracle);

/// In-place 2-opt improvement on the penalized (length + conflict) cost.
/// Used both inside heuristic_tour and as the post-merge polish of Step 1.
/// Incremental: each candidate move is scored by its exact integer length
/// delta in O(1) and (only when that leaves the move competitive) its exact
/// conflict-count delta from four ConflictOracle::conflicts_with counts
/// against the tour's edge set — replacing the historical full O(n^2)
/// re-evaluation per candidate while accepting and rejecting the exact same
/// move sequence.
void two_opt(std::vector<NodeId>& order, const netlist::Floorplan& floorplan,
             const ConflictOracle& oracle);

/// In-place Or-opt improvement on the penalized cost: relocates segments of
/// 1..3 consecutive nodes to another tour position (forward or reversed),
/// first-improvement, exact integer deltas. Complements two_opt, which can
/// only reverse a contiguous range — the moves that remain after 2-opt
/// converges (a node stranded far from its tour neighbours) are exactly the
/// relocations this pass makes. Deliberately NOT part of heuristic_tour /
/// two_opt (their move sequences are pinned by the quality baselines);
/// callers that want the stronger polish — the budgeted LNS always, the
/// exact path behind RingBuildOptions::or_opt_polish — invoke it on top.
void or_opt(std::vector<NodeId>& order, const netlist::Floorplan& floorplan,
            const ConflictOracle& oracle);

/// Total Manhattan length of a tour (closing edge included), micrometres.
geom::Coord tour_length(const std::vector<NodeId>& order,
                        const netlist::Floorplan& floorplan);

/// Number of conflicting edge pairs in a tour (distinct nodes).
int tour_conflicts(const std::vector<NodeId>& order,
                   const ConflictOracle& oracle);

/// Certified lower bound on any Hamiltonian tour length (µm): every node is
/// incident to exactly two tour edges, so half the sum over nodes of the two
/// cheapest incident edge lengths bounds every tour from below. O(n^2),
/// deterministic, and tight on regular grids (where it equals the optimal
/// boustrophedon tour).
geom::Coord tour_lower_bound(const netlist::Floorplan& floorplan);

struct LnsResult {
  std::vector<NodeId> order;
  geom::Coord length_um = 0;
  int conflicts = 0;
  int repairs_attempted = 0;
  int repairs_accepted = 0;
  /// True when the wall-clock budget cut the schedule short (the result is
  /// still valid, but no longer reproducible across machines).
  bool budget_exhausted = false;
  double seconds = 0.0;
};

/// Time-budgeted large-neighbourhood search over tours: destroy a window of
/// up to 12 consecutive tour positions and repair it with an *exact* MILP over the
/// sub-neighbourhood (a Hamiltonian path between the pinned endpoints over
/// the edges that conflict with no frozen hop, sub-tours eliminated
/// lazily), accepting a repair only
/// when it strictly improves the penalized cost. The current segment warm
/// starts every repair MILP, i.e. the incumbent is fed back into branch &
/// bound as a primal bound. The repair schedule (4 seeded window starts per
/// node) and the per-repair node limit are fixed, so `budget_seconds` is
/// only a safety stop: runs that complete the schedule are bit-identical
/// at any jobs count.
LnsResult lns_tour(const netlist::Floorplan& floorplan,
                   const ConflictOracle& oracle, double budget_seconds);

}  // namespace xring::ring
