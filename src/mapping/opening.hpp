#pragma once

#include <utility>
#include <vector>

#include "mapping/wavelength.hpp"

namespace xring::mapping {

class OccupancyIndex;

struct OpeningOptions {
  /// When false, waveguides stay unbroken (models routers whose PDN must
  /// cross the rings instead — the baseline configuration).
  bool enable = true;
};

/// Statistics of the opening phase (exposed for tests and benches).
struct OpeningStats {
  int relocated_signals = 0;
  int extra_waveguides = 0;
};

/// Step 3's second half (Sec. III-C): for every ring waveguide, pick the
/// node passed by the fewest signals as its opening, relocate those passing
/// signals to other waveguides of the same direction (respecting #wl and
/// already-fixed openings), and record the opening. Relocation falls back to
/// a fresh waveguide when no existing one fits, so the phase always
/// succeeds; every ring waveguide ends up with an opening through which the
/// PDN reaches the senders without crossing any ring waveguide.
///
/// Runs on the incremental OccupancyIndex (occupancy.hpp) the assignment
/// filled, over `index.mapping()` and under the index's #wl cap: candidate
/// scoring reads maintained passing counts, and each candidate's
/// relocations are tried against the unchanged index, from per-signal lists
/// of fitting slots, and written only when every moving signal fits — a
/// failed candidate leaves nothing to undo.
OpeningStats create_openings(const ring::Tour& tour, OccupancyIndex& index,
                             const OpeningOptions& options = {});

/// The same phase over a Mapping, on a freshly built index. `shared_arcs`
/// (optional) is the sweep-shared ArcTable over the same (tour, traffic);
/// results are bit-identical with or without it.
OpeningStats create_openings(const ring::Tour& tour,
                             const netlist::Traffic& traffic, Mapping& mapping,
                             const MappingOptions& mapping_options,
                             const OpeningOptions& options = {},
                             const ArcTable* shared_arcs = nullptr);

/// Opening-candidate order for waveguide `w`: (passing count, node) pairs
/// over all tour positions, counts ascending, ties broken by tour position —
/// built by a stable counting sort over the index's maintained counts
/// (exactly the order `stable_sort` by count used to produce; the
/// differential test asserts the equivalence).
std::vector<std::pair<int, NodeId>> opening_candidate_order(
    const OccupancyIndex& index, const ring::Tour& tour, int w);

}  // namespace xring::mapping
