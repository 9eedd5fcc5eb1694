#pragma once

#include <optional>
#include <vector>

#include "ring/tour.hpp"

namespace xring::shortcut {

using netlist::NodeId;

/// A selected shortcut between two nodes (paper Step 2): a chord of the ring
/// implemented as two parallel waveguides (one per direction) connecting the
/// nodes' senders and receivers without crossing any ring waveguide.
struct Shortcut {
  NodeId a = -1;
  NodeId b = -1;
  geom::Coord length = 0;      ///< Manhattan distance between the nodes (µm)
  geom::Coord gain = 0;        ///< min ring-path length minus shortcut length
  geom::LOrder order = geom::LOrder::kVerticalFirst;  ///< chosen chord route
  /// Index of the shortcut this one crosses (paper allows at most one); the
  /// crossing is implemented as a CSE, merging the two shortcuts.
  int crossing_partner = -1;
  /// Crossing point with the partner's chord, when crossing_partner >= 0.
  std::optional<geom::Point> crossing;
};

/// A signal routed over the CSE formed by two crossing shortcuts: it enters
/// on one shortcut's waveguide, drops at the CSE's MRR, and leaves on the
/// other's (Fig. 7(b): n2 → λ3 → n6).
struct CseRoute {
  NodeId src = -1;
  NodeId dst = -1;
  int shortcut_in = -1;   ///< shortcut whose waveguide carries src → crossing
  int shortcut_out = -1;  ///< shortcut whose waveguide carries crossing → dst
  geom::Coord length = 0; ///< src → crossing → dst, µm
};

struct ShortcutOptions {
  bool enable = true;
  /// Paper constraint: "a network node can only have at most one shortcut".
  /// Raising this explores the extension the constraint exists to bound
  /// (every extra shortcut sender needs PDN power); the ablation benches
  /// sweep it.
  int max_per_node = 1;
};

/// Step 2's full output.
struct ShortcutPlan {
  std::vector<Shortcut> shortcuts;
  std::vector<CseRoute> cse_routes;

  /// Index of the shortcut joining {a, b} (direction-insensitive), or -1.
  int find(NodeId a, NodeId b) const;
};

/// Runs shortcut construction: feasibility (chord must not cross or overlap
/// the ring, nor touch it away from its endpoints), gain computation,
/// greedy max-gain selection with at most one shortcut per node, CSE merging
/// of crossing pairs, and CSE route derivation.
ShortcutPlan build_shortcuts(const ring::RingGeometry& ring,
                             const netlist::Floorplan& floorplan,
                             const ShortcutOptions& options = {});

/// One candidate chord considered by selection (exposed for tests).
struct ChordCandidate {
  NodeId a = -1;
  NodeId b = -1;
  geom::Coord length = 0;
  geom::Coord gain = 0;
  std::vector<geom::LOrder> feasible_orders;
};

/// All positive-gain ring-clearing chords, sorted by descending gain (ties
/// by ascending (a, b)). `feasible_orders` lists the L-orders that cross no
/// ring segment: vertical-first, then horizontal-first. O(n · ring
/// segments) for the per-node ray blockers plus O(1) per node pair.
std::vector<ChordCandidate> collect_candidates(
    const ring::RingGeometry& ring, const netlist::Floorplan& floorplan);

}  // namespace xring::shortcut
