#pragma once

#include <optional>

#include "analysis/design.hpp"
#include "analysis/substrate.hpp"

namespace xring::analysis {

// LossBreakdown lives in design.hpp (each SignalReport holds its signal's);
// loss.hpp re-exports it transitively.

/// Shared precomputation for analyzing one design: the ring's geometry
/// substrate (per-hop realized routes, sparse hop-crossing structure and
/// arc prefix sums), the per-signal arc table, and the design's device
/// lookup tables.
///
/// The ring substrate and arc table depend only on (ring, floorplan,
/// traffic); callers evaluating many designs over one ring (the `#wl`
/// sweep) pass shared instances so they are built once instead of once per
/// design — see xring::SweepCache. The device tables are mapping-dependent
/// and always built here (O(signals + waveguides·n)).
class AnalysisContext {
 public:
  explicit AnalysisContext(const RouterDesign& design,
                           const RingSubstrate* shared_ring = nullptr,
                           const mapping::ArcTable* shared_arcs = nullptr);

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const RouterDesign& design() const { return *design_; }
  const RingSubstrate& ring() const { return *ring_; }
  const mapping::ArcTable& arcs() const { return *arcs_; }
  const DeviceIndex& devices() const { return devices_; }

  /// The hop arc signal `id` occupies when travelling `dir` — the same
  /// cyclic interval mapping::occupied_hops enumerates.
  mapping::ArcTable::Arc arc(SignalId id, mapping::Direction dir) const {
    return arcs_->arc(id, dir);
  }

 private:
  const RouterDesign* design_;
  std::optional<RingSubstrate> local_ring_;
  std::optional<mapping::ArcTable> local_arcs_;
  const RingSubstrate* ring_;
  const mapping::ArcTable* arcs_;
  DeviceIndex devices_;
};

/// Computes the full loss breakdown of one signal. Unrouted signals yield a
/// zeroed breakdown (they cannot occur in a complete synthesis).
LossBreakdown signal_loss(const AnalysisContext& ctx, SignalId id);

}  // namespace xring::analysis
