#pragma once

#include <chrono>
#include <functional>
#include <optional>

#include "milp/model.hpp"

namespace xring::milp {

enum class MipStatus {
  kOptimal,    ///< proven optimal
  kFeasible,   ///< incumbent found, search stopped early (time/node limit)
  kInfeasible,
  kUnbounded,
  kNoSolution, ///< search stopped early with no incumbent
};

std::string to_string(MipStatus s);

struct MipResult {
  MipStatus status = MipStatus::kNoSolution;
  double objective = 0.0;
  std::vector<double> x;
  long nodes = 0;
  int lazy_constraints_added = 0;
  /// Cutting planes appended by BnbOptions::cut_separator.
  int cutting_planes_added = 0;
  /// Best proven objective bound, in the caller's objective sense (a lower
  /// bound when minimizing, an upper bound when maximizing). Equals
  /// `objective` when the status is kOptimal; -/+infinity when the search
  /// stopped before proving any bound.
  double best_bound = 0.0;
  double seconds = 0.0;
};

/// Called whenever the search finds an integer-feasible point. The handler
/// may return violated constraints ("lazy constraints") that are then added
/// to the model globally; the candidate is rejected and its node re-solved.
/// Returning an empty vector accepts the candidate as feasible.
///
/// XRing uses this for the waveguide-crossing conflict constraints (paper
/// Eq. 3): instead of materializing O(|E|^2) rows up front, only the rows
/// violated by an actual candidate tour are ever added.
using LazyConstraintHandler =
    std::function<std::vector<Constraint>(const std::vector<double>& x)>;

/// Called on *fractional* LP relaxation points (at shallow nodes, a bounded
/// number of rounds per node). Returns violated valid inequalities
/// ("cutting planes") that are then added to the model globally and the node
/// re-solved from its warm basis — the same lazy-row machinery used for
/// integer candidates. Returned rows MUST be valid for every integer
/// feasible point of the full model (they are appended globally, not per
/// subtree); they should be violated by `x` by a meaningful margin, since
/// each non-empty return costs one extra LP solve.
using CutSeparator =
    std::function<std::vector<Constraint>(const std::vector<double>& x)>;

struct BnbOptions {
  double time_limit_seconds = 60.0;
  long node_limit = 1'000'000;
  /// Optional warm-start point; if integer-feasible (and lazy-accepted) it
  /// seeds the incumbent and tightens pruning from the first node.
  std::optional<std::vector<double>> warm_start;
  LazyConstraintHandler lazy_handler;
  CutSeparator cut_separator;
};

/// Solves the model by LP-relaxation branch & bound (best-first search,
/// most-fractional branching, global lazy-constraint pool). The search is
/// serial and deterministic: the same model and options give the same
/// search and the same answer at every pool size (unless the time limit
/// cuts the search short — wall-clock stops are inherently
/// machine-dependent).
MipResult solve(const Model& model, const BnbOptions& options = {});

}  // namespace xring::milp
