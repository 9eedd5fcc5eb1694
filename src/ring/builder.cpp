#include "ring/builder.hpp"

#include <chrono>
#include <cmath>

#include "obs/events.hpp"
#include "obs/obs.hpp"

namespace xring::ring {

namespace {

/// Certified gap of a ring of length `len` against lower bound `lb`.
double gap_of(geom::Coord len, geom::Coord lb) {
  if (len <= 0 || lb >= len) return 0.0;
  return static_cast<double>(len - lb) / static_cast<double>(len);
}

}  // namespace

RingBuildResult build_ring(const netlist::Floorplan& floorplan,
                           const ConflictOracle& oracle,
                           const RingBuildOptions& options) {
  obs::Span span("ring_construction");
  const auto start = std::chrono::steady_clock::now();
  RingBuildResult result;

  // The degree bound holds for every conflict-free ring; the exact solver
  // below can only tighten it.
  result.lower_bound_um = tour_lower_bound(floorplan);

  std::vector<NodeId> tour_order;
  if (options.lns_budget_seconds > 0.0) {
    // Budgeted mode: skip both the all-starts heuristic and the full-size
    // exact MILP; the LNS runs its own construction and repairs windows
    // with exact sub-MILPs until the schedule (or the budget) ends.
    const LnsResult search =
        lns_tour(floorplan, oracle, options.lns_budget_seconds);
    tour_order = search.order;
    result.mip_status = milp::MipStatus::kFeasible;
    result.lns_repairs = search.repairs_accepted;
    result.lns_budget_exhausted = search.budget_exhausted;
  } else {
    // Penalized tour cost: conflict-freedom dominates length.
    auto cost = [&](const std::vector<NodeId>& t) {
      return tour_length(t, floorplan) +
             kConflictPenalty * tour_conflicts(t, oracle);
    };
    std::vector<NodeId> heuristic = heuristic_tour(floorplan, oracle);
    if (options.or_opt_polish) {
      // Alternate to a joint fixpoint: each pass opens moves for the other.
      geom::Coord before;
      do {
        before = cost(heuristic);
        or_opt(heuristic, floorplan, oracle);
        two_opt(heuristic, floorplan, oracle);
      } while (cost(heuristic) < before);
    }
    tour_order = heuristic;
    if (options.use_milp) {
      // The reflective symmetry row is oriented by the heuristic tour, so
      // the warm start stays feasible.
      TspModel tsp(floorplan, oracle, options.conflict_mode);
      tsp.add_symmetry_breaking(heuristic);

      milp::BnbOptions bnb;
      bnb.time_limit_seconds = options.time_limit_seconds;
      bnb.lazy_handler = tsp.lazy_handler();
      bnb.cut_separator = tsp.cut_separator();
      // Seed the incumbent only when the heuristic tour is itself legal; a
      // conflicted warm start would be rejected by the solver's vetting
      // anyway.
      if (tour_conflicts(heuristic, oracle) == 0) {
        bnb.warm_start = tsp.warm_start_from(heuristic);
      }

      const milp::MipResult mip = milp::solve(tsp.model(), bnb);
      result.mip_status = mip.status;
      result.bnb_nodes = mip.nodes;
      result.lazy_cuts = mip.lazy_constraints_added;
      result.cutting_planes = mip.cutting_planes_added;
      // The MILP relaxes connectivity, so its proven bound is a valid lower
      // bound on any single conflict-free ring — keep the tighter of it and
      // the degree bound.
      if (std::isfinite(mip.best_bound)) {
        const auto proven =
            static_cast<geom::Coord>(std::ceil(mip.best_bound - 1e-6));
        if (proven > result.lower_bound_um) result.lower_bound_um = proven;
      }

      if (mip.status == milp::MipStatus::kOptimal ||
          mip.status == milp::MipStatus::kFeasible) {
        const auto edges = tsp.selected_edges(mip.x);
        auto cycles = extract_cycles(edges, floorplan.size());
        result.subcycles_before_merge = static_cast<int>(cycles.size());
        std::vector<NodeId> merged =
            merge_cycles(std::move(cycles), floorplan, oracle);
        // Post-merge polish: the paper's merge heuristic can leave slack
        // that a conflict-aware 2-opt removes (it never worsens the
        // penalized cost). Keep the better of the polished merge and the
        // heuristic tour.
        two_opt(merged, floorplan, oracle);
        tour_order = merged;
      }
    }

    // Whichever tour is cheaper wins.
    if (cost(heuristic) < cost(tour_order)) tour_order = heuristic;
  }

  result.certified_gap =
      gap_of(tour_length(tour_order, floorplan), result.lower_bound_um);
  result.geometry = realize(Tour(tour_order, &floorplan), floorplan);
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("ring.builds").add();
    reg.counter("ring.subcycles").add(result.subcycles_before_merge);
    reg.gauge("ring.crossings").set(result.geometry.crossings);
    reg.gauge("ring.length_um").set(result.geometry.tour.total_length());
    reg.gauge("milp.certified_gap").set(result.certified_gap);
  }
  if (obs::events::enabled()) {
    obs::events::emit(
        "ring.certified",
        {{"length_um",
          static_cast<double>(result.geometry.tour.total_length())},
         {"lower_bound_um", static_cast<double>(result.lower_bound_um)},
         {"gap", result.certified_gap}});
  }
  return result;
}

RingBuildResult build_ring(const netlist::Floorplan& floorplan,
                           const RingBuildOptions& options) {
  const ConflictOracle oracle(floorplan);
  return build_ring(floorplan, oracle, options);
}

}  // namespace xring::ring
