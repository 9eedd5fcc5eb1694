#pragma once

#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "ring/conflict.hpp"

namespace xring::ring {

/// How the waveguide-crossing conflict constraints (paper Eq. 3) enter the
/// MILP.
enum class ConflictMode {
  /// One row per conflicting pair actually violated by a candidate integer
  /// solution, added through the branch & bound's lazy-constraint callback,
  /// instead of the paper's O(|E|^2) rows up front. Reaches the same optimum
  /// with far smaller LPs (see DESIGN.md).
  kLazy,
  /// kLazy, plus the anti-2-cycle rows (Eq. 2) are *also* dropped from the
  /// root model: violated ones are separated as cutting planes from
  /// fractional LP points (cut_separator()) and enforced at integer points
  /// through the lazy handler. This removes the n(n-1)/2-row wall that
  /// dominates the root LP at large N; the optimum is unchanged because
  /// every dropped row is restored exactly where it binds.
  kSeparated,
};

/// The paper's modified-TSP MILP (Sec. III-A):
///  * binary b_e per directed edge e,
///  * in/out degree exactly 1 per vertex        (Eq. 1),
///  * b_(i,j) + b_(j,i) <= 1                    (Eq. 2),
///  * conflicting pairs not co-selected         (Eq. 3),
///  * minimize total Manhattan length           (Eq. 4).
/// Connectivity is deliberately *not* modelled; sub-cycles in the optimum
/// are merged afterwards by the paper's heuristic (subcycle.hpp).
class TspModel {
 public:
  TspModel(const netlist::Floorplan& floorplan, const ConflictOracle& oracle,
           ConflictMode mode);

  const milp::Model& model() const { return model_; }
  const EdgeSpace& edges() const { return edges_; }

  /// Breaks the tour's reflective symmetry. The edge formulation already
  /// quotients out rotations (a tour's edge set is rotation-invariant), so
  /// the only residual symmetry is reversal: every selection and its mirror
  /// are distinct variable assignments with identical objective. One
  /// orientation row on node 0 — sum_u u*b_(0,u) - sum_u u*b_(u,0), i.e.
  /// succ(0) - pred(0), forced <= -1 or >= +1 — keeps exactly one of each
  /// mirror pair, halving the search space. The inequality's direction is
  /// taken from `reference` (normally the heuristic warm-start tour) so the
  /// warm start stays feasible and a solver that returns the warm start
  /// returns it unreversed — downstream ring direction is untouched.
  /// No-op for fewer than 3 nodes.
  void add_symmetry_breaking(const std::vector<NodeId>& reference);

  /// Lazy handler enforcing the rows not materialized up front: Eq. 3 rows
  /// violated by a candidate integer selection and, in kSeparated, Eq. 2
  /// rows for selected 2-cycles.
  milp::LazyConstraintHandler lazy_handler() const;

  /// Cutting-plane separator for fractional LP points (see
  /// milp::CutSeparator): violated Eq. 2 rows (kSeparated only — in kLazy
  /// they are all in the root model) and Eq. 3 conflict rows whose
  /// undirected-edge LP mass exceeds 1. All returned rows are rows of the
  /// paper's formulation, hence globally valid.
  milp::CutSeparator cut_separator() const;

  /// Converts a tour (cyclic node order) into a b_e assignment usable as a
  /// warm start.
  std::vector<double> warm_start_from(const std::vector<NodeId>& order) const;

  /// Decodes a solved b_e vector into the selected directed edges.
  std::vector<std::pair<NodeId, NodeId>> selected_edges(
      const std::vector<double>& x) const;

 private:
  const ConflictOracle* oracle_;
  EdgeSpace edges_;
  milp::Model model_;
  ConflictMode mode_;
};

}  // namespace xring::ring
