#pragma once

#include "ring/heuristic.hpp"
#include "ring/subcycle.hpp"
#include "ring/tsp_model.hpp"

namespace xring::ring {

/// Knobs for Step 1.
struct RingBuildOptions {
  ConflictMode conflict_mode = ConflictMode::kLazy;
  /// When false the MILP is skipped and the conflict-aware heuristic tour is
  /// used directly (the `ablation_features` bench compares both).
  bool use_milp = true;
  double time_limit_seconds = 30.0;
  /// Run the Or-opt relocation polish on top of the heuristic tour before
  /// it seeds (and competes with) the exact MILP. Off by default: the
  /// paper-size baselines pin the historical heuristic move sequence; the
  /// scaling bench turns it on, where reaching the MILP bound with the
  /// warm start is what makes n >= 192 a root solve. The budgeted LNS mode
  /// always polishes with Or-opt regardless of this flag.
  bool or_opt_polish = false;
  /// > 0 switches Step 1 to the time-budgeted LNS mode: no exact full-size
  /// MILP, instead a destroy/repair search whose repairs are exact MILPs on
  /// sub-neighbourhoods (heuristic.hpp lns_tour), reported with a certified
  /// optimality gap. Deterministic whenever the repair schedule completes
  /// inside the budget, independent of --jobs.
  double lns_budget_seconds = 0.0;
};

/// Outcome of Step 1: the realized ring plus solver diagnostics.
struct RingBuildResult {
  RingGeometry geometry;
  milp::MipStatus mip_status = milp::MipStatus::kNoSolution;
  long bnb_nodes = 0;
  int lazy_cuts = 0;
  /// Cutting planes separated from fractional points (exact mode).
  int cutting_planes = 0;
  int subcycles_before_merge = 1;
  /// Certified lower bound on any conflict-free ring length (µm): the
  /// degree bound (heuristic.hpp tour_lower_bound), tightened by the
  /// branch & bound's proven bound when the exact solver ran.
  geom::Coord lower_bound_um = 0;
  /// Certified relative optimality gap of the returned ring,
  /// (length - lower_bound) / length, clamped at 0. Reaches exactly 0 when
  /// the realized ring's length meets the proven bound (in particular when
  /// the MILP proved optimality and its optimum was already a single
  /// cycle).
  double certified_gap = 0.0;
  /// LNS mode only: accepted repair count and whether the wall-clock budget
  /// cut the (otherwise deterministic) repair schedule short.
  int lns_repairs = 0;
  bool lns_budget_exhausted = false;
  double seconds = 0.0;
};

/// Runs the paper's Step 1 end to end: build the modified-TSP MILP, warm
/// start it with the conflict-aware heuristic, solve, merge sub-cycles, and
/// realize the tour as rectilinear geometry. Falls back to the heuristic
/// tour if the solver finds nothing within its budget. With
/// `lns_budget_seconds > 0` the exact solve is replaced by the budgeted
/// LNS (see RingBuildOptions).
RingBuildResult build_ring(const netlist::Floorplan& floorplan,
                           const ConflictOracle& oracle,
                           const RingBuildOptions& options = {});

/// Convenience overload constructing the oracle internally.
RingBuildResult build_ring(const netlist::Floorplan& floorplan,
                           const RingBuildOptions& options = {});

}  // namespace xring::ring
