#pragma once

#include <vector>

#include "netlist/traffic.hpp"

namespace xring::place {

/// Traffic-driven placement co-optimization (extension beyond the paper,
/// which takes node positions as given): assign the network nodes to a set
/// of candidate slots so that the ring router built afterwards serves the
/// demand set with the least total arc length. Application-specific
/// WRONoC synthesis (CustomTopo [5]) motivates exactly this coupling.
struct PlacementOptions {
  int iterations = 1500;
};

struct PlacementResult {
  /// node_slot[v] = index into `slots` where node v was placed.
  std::vector<int> node_slot;
  netlist::Floorplan floorplan;  ///< nodes at their optimized positions
  double initial_cost_mm = 0.0;  ///< traffic-weighted ring distance before
  double final_cost_mm = 0.0;    ///< ... and after optimization
};

/// Cost of one placement: total over all signals of the shorter ring arc,
/// on the conflict-aware heuristic ring for that placement (mm).
double placement_cost_mm(const netlist::Floorplan& floorplan,
                         const netlist::Traffic& traffic);

/// Simulated annealing over slot assignments (pairwise swaps, Metropolis
/// acceptance, from a fixed seed, so deterministic). `slots` must have exactly
/// as many entries as the traffic has nodes.
PlacementResult optimize_placement(const std::vector<geom::Point>& slots,
                                   int nodes, const netlist::Traffic& traffic,
                                   const PlacementOptions& options = {});

}  // namespace xring::place
