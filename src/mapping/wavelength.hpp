#pragma once

#include <vector>

#include "netlist/traffic.hpp"
#include "ring/tour.hpp"
#include "shortcut/shortcut.hpp"

namespace xring::mapping {

using netlist::NodeId;
using netlist::SignalId;

/// Travel direction on the ring. Clockwise is tour order (waveguide family
/// r1 in the paper), counter-clockwise the reverse (r2).
enum class Direction { kCw, kCcw };

/// How a signal reaches its destination.
enum class RouteKind {
  kRingCw,    ///< on a clockwise ring waveguide
  kRingCcw,   ///< on a counter-clockwise ring waveguide
  kShortcut,  ///< directly over a shortcut chord
  kCse,       ///< over two crossed shortcuts, switching at the CSE
  kUnrouted,
};

/// Report name of a route kind: "ring-cw", "ring-ccw", "shortcut", "cse" or
/// "unrouted".
const char* to_string(RouteKind kind);

/// Per-signal routing decision.
struct SignalRoute {
  RouteKind kind = RouteKind::kUnrouted;
  int waveguide = -1;   ///< ring waveguide index (into Mapping::waveguides)
  int wavelength = -1;
  int shortcut = -1;    ///< index into ShortcutPlan::shortcuts (kShortcut)
  int cse = -1;         ///< index into ShortcutPlan::cse_routes (kCse)
};

/// One ring waveguide instance: a full circular copy of the constructed ring
/// geometry carrying signals in one direction, later broken at `opening`.
struct RingWaveguide {
  Direction dir = Direction::kCw;
  NodeId opening = -1;  ///< -1 until Step 3's opening phase ran
  std::vector<SignalId> signals;
};

struct MappingOptions {
  /// Maximum number of wavelengths usable on one ring waveguide (#wl). The
  /// sweep layer varies this to find min-power / max-SNR settings. Must be
  /// at least 1; Step 3 throws std::invalid_argument otherwise.
  int max_wavelengths = 16;
};

/// The complete Step 3 result.
struct Mapping {
  std::vector<SignalRoute> routes;        ///< indexed by SignalId
  std::vector<RingWaveguide> waveguides;

  /// Distinct wavelengths used anywhere (the tables' #wl column).
  int wavelengths_used = 0;

  /// Per-direction waveguide counts, maintained by add_waveguide (every
  /// pipeline site that appends a waveguide goes through it), so loops can
  /// read ring_waveguides without a recount.
  int cw_waveguides = 0;
  int ccw_waveguides = 0;

  int ring_waveguides(Direction dir) const {
    return dir == Direction::kCw ? cw_waveguides : ccw_waveguides;
  }

  /// Appends a fresh empty ring waveguide of the direction and updates the
  /// per-direction count; returns the new waveguide's index.
  int add_waveguide(Direction dir);
};

class ArcTable;        // occupancy.hpp: precomputed arcs shared across a sweep
class OccupancyIndex;  // occupancy.hpp: the incremental slot index

/// The directed arc a ring-routed signal occupies, as tour hop indices.
/// Clockwise signals cover the cw arc src→dst; counter-clockwise signals
/// physically cover the hops of the cw arc dst→src.
std::vector<int> occupied_hops(const ring::Tour& tour, NodeId src, NodeId dst,
                               Direction dir);

/// XRing's signal mapping (Sec. III-C): shortcut-supported signals first
/// (shortcut wavelength rules: one shared λ for non-crossed shortcuts,
/// distinct λs for a crossed pair, further λs for CSE-routed signals), then
/// first-fit-decreasing of the remaining signals onto ring waveguides in
/// their shorter direction, opening new waveguides when #wl is exhausted.
/// Openings are NOT chosen here; see opening.hpp.
///
/// Writes into `index.mapping()`, which must hold no waveguide yet; the
/// #wl cap is the index's. The index stays live for the opening phase
/// (`create_openings(tour, index, ...)`), so both phases share one index.
void assign_wavelengths(const ring::Tour& tour,
                        const netlist::Traffic& traffic,
                        const shortcut::ShortcutPlan& shortcuts,
                        OccupancyIndex& index);

/// The same assignment into a fresh Mapping, on a local index.
/// `shared_arcs`, when given, must be an ArcTable built over the same
/// (tour, traffic) pair — a `#wl` sweep builds it once (see
/// Synthesizer::make_sweep_cache) instead of once per setting; when null a
/// local table is built. Either way the result is bit-identical to the
/// brute-force reference predicates in tests/mapping_reference.hpp.
Mapping assign_wavelengths(const ring::Tour& tour,
                           const netlist::Traffic& traffic,
                           const shortcut::ShortcutPlan& shortcuts,
                           const MappingOptions& options = {},
                           const ArcTable* shared_arcs = nullptr);

}  // namespace xring::mapping
