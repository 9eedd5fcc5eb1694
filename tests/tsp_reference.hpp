#pragma once

// The paper-literal Step-1 MILP (Sec. III-A, Eqs. 1-4), the reference the
// lazy and separated conflict modes are held to (tests/test_milp_scale.cpp,
// tests/test_ring_construction.cpp). Only tests include it.

#include <utility>

#include "milp/model.hpp"
#include "netlist/floorplan.hpp"
#include "ring/conflict.hpp"
#include "ring/tsp_model.hpp"

namespace xring::ring::reference {

/// The kLazy model plus one Eq. 3 row per conflicting pair, all up front:
/// O(|E|^2) rows, small n only. Solved with no lazy handler and no cut
/// separator, nothing is left for the branch & bound to discover. A conflict
/// depends only on the unordered endpoint pairs, so one row covers all four
/// directed combinations via the sum of both directions of each edge.
inline milp::Model paper_literal_model(const netlist::Floorplan& fp,
                                       const ConflictOracle& oracle) {
  const TspModel tsp(fp, oracle, ConflictMode::kLazy);
  const EdgeSpace& edges = tsp.edges();
  milp::Model model = tsp.model();
  const int n = fp.size();
  for (NodeId a1 = 0; a1 < n; ++a1) {
    for (NodeId a2 = a1 + 1; a2 < n; ++a2) {
      for (NodeId b1 = a1; b1 < n; ++b1) {
        for (NodeId b2 = b1 + 1; b2 < n; ++b2) {
          if (std::make_pair(b1, b2) <= std::make_pair(a1, a2)) continue;
          if (!oracle.conflict(a1, a2, b1, b2)) continue;
          model.add_constraint({{edges.index(a1, a2), 1.0},
                                {edges.index(a2, a1), 1.0},
                                {edges.index(b1, b2), 1.0},
                                {edges.index(b2, b1), 1.0}},
                               milp::Sense::kLe, 1.0);
        }
      }
    }
  }
  return model;
}

}  // namespace xring::ring::reference
