#include "analysis/loss.hpp"

#include <algorithm>

namespace xring::analysis {

AnalysisContext::AnalysisContext(const RouterDesign& design,
                                 const RingSubstrate* shared_ring,
                                 const mapping::ArcTable* shared_arcs)
    : design_(&design) {
  if (shared_ring != nullptr) {
    ring_ = shared_ring;
  } else {
    local_ring_.emplace(design.ring, *design.floorplan);
    ring_ = &*local_ring_;
  }
  if (shared_arcs != nullptr) {
    arcs_ = shared_arcs;
  } else {
    local_arcs_.emplace(design.ring.tour, design.traffic);
    arcs_ = &*local_arcs_;
  }
  devices_ = DeviceIndex(design, *arcs_);
}

namespace {

LossBreakdown ring_route_loss(const AnalysisContext& ctx, SignalId id) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const mapping::SignalRoute& route = d.mapping.routes[id];
  const int w = route.waveguide;
  const mapping::Direction dir = d.mapping.waveguides[w].dir;
  const mapping::ArcTable::Arc arc = ctx.arc(id, dir);
  const RingSubstrate& ring = ctx.ring();
  const DeviceIndex& dev = ctx.devices();

  LossBreakdown b;
  const geom::Coord arc_um = ring.length_on_arc(arc.start, arc.len);
  b.path_mm = arc_um / 1000.0 * d.ring_scale(w);
  b.propagation_db = b.path_mm * lp.propagation_db_per_mm;

  b.bends = ring.bends_on_arc(arc.start, arc.len);
  b.bend_db = b.bends * lp.bend_db;

  // Devices at intermediate nodes: every receiver drop-MRR is doubled by
  // the residue-terminating MRR of Fig. 5(b) when that filter is present;
  // every modulator of other senders is one more off-resonance pass. The
  // per-interior-node counts are integers, so the prefix-summed form equals
  // the node-by-node accumulation exactly.
  const int rx_mrrs = d.params.crosstalk.residue_filter ? 2 : 1;
  b.through_mrrs = rx_mrrs * dev.rx_on_interior(w, arc.start, arc.len) +
                   dev.tx_on_interior(w, arc.start, arc.len);
  b.crossings += dev.pdn_on_interior(w, arc.start, arc.len);
  b.through_db = b.through_mrrs * lp.through_db;

  b.crossings += ring.crossings_on_arc(arc.start, arc.len);
  b.crossing_db = b.crossings * lp.crossing_db;

  b.modulator_db = lp.modulator_db;
  b.drop_db = lp.drop_db;
  b.photodetector_db = lp.photodetector_db;
  if (d.has_pdn) {
    b.pdn_db = d.pdn.ring_feed_db[w][d.traffic.signal(id).src];
    b.coupler_db = lp.coupler_db;
  }
  return b;
}

LossBreakdown shortcut_route_loss(const AnalysisContext& ctx, SignalId id) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const auto& sig = d.traffic.signal(id);
  const mapping::SignalRoute& route = d.mapping.routes[id];
  const shortcut::Shortcut& sc = d.shortcuts.shortcuts[route.shortcut];
  const DeviceIndex& dev = ctx.devices();

  LossBreakdown b;
  b.path_mm = sc.length / 1000.0;
  b.propagation_db = b.path_mm * lp.propagation_db_per_mm;
  const bool straight =
      geom::axis_aligned(d.floorplan->position(sc.a), d.floorplan->position(sc.b));
  b.bends = straight ? 0 : 1;
  b.bend_db = b.bends * lp.bend_db;

  if (sc.crossing_partner >= 0) {
    // Passing the CSE: the physical crossing plus the off-resonance MRRs of
    // the CSE routes departing from this signal's waveguide.
    b.crossings = 1;
    b.crossing_db = lp.crossing_db;
    b.through_mrrs += dev.cse_mrrs_on(route.shortcut, sig.src);
  }
  // Other receivers at the destination end of the chord (residue filters
  // included when configured).
  b.through_mrrs +=
      (d.params.crosstalk.residue_filter ? 2 : 1) *
      std::max(0, dev.shortcut_receivers_at(route.shortcut, sig.dst) - 1);
  b.through_db = b.through_mrrs * lp.through_db;

  b.modulator_db = lp.modulator_db;
  b.drop_db = lp.drop_db;
  b.photodetector_db = lp.photodetector_db;
  if (d.has_pdn) {
    b.pdn_db = d.pdn.shortcut_feed_db[sig.src];
    b.coupler_db = lp.coupler_db;
  }
  return b;
}

LossBreakdown cse_route_loss(const AnalysisContext& ctx, SignalId id) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const auto& sig = d.traffic.signal(id);
  const mapping::SignalRoute& route = d.mapping.routes[id];
  const shortcut::CseRoute& cse = d.shortcuts.cse_routes[route.cse];
  const DeviceIndex& dev = ctx.devices();

  LossBreakdown b;
  b.path_mm = cse.length / 1000.0;
  b.propagation_db = b.path_mm * lp.propagation_db_per_mm;
  b.bends = 2;  // chord bend budget: entry leg + the 90° CSE turn
  b.bend_db = b.bends * lp.bend_db;

  // The CSE switch itself is a drop; no crossing loss is paid when turning.
  b.drop_db = 2.0 * lp.drop_db;  // CSE drop + receiver drop

  // Off-resonance MRRs: sibling CSE MRRs on the inbound waveguide, every
  // CSE MRR attached to the outbound waveguide, and foreign receivers at
  // the destination.
  b.through_mrrs += std::max(0, dev.cse_mrrs_on(cse.shortcut_in, cse.src) - 1);
  const shortcut::Shortcut& out = d.shortcuts.shortcuts[cse.shortcut_out];
  const NodeId out_from = out.a == cse.dst ? out.b : out.a;
  b.through_mrrs += dev.cse_mrrs_on(cse.shortcut_out, out_from);
  b.through_mrrs +=
      (d.params.crosstalk.residue_filter ? 2 : 1) *
      std::max(0, dev.shortcut_receivers_at(cse.shortcut_out, sig.dst) - 1);
  b.through_db = b.through_mrrs * lp.through_db;

  b.modulator_db = lp.modulator_db;
  b.photodetector_db = lp.photodetector_db;
  if (d.has_pdn) {
    b.pdn_db = d.pdn.shortcut_feed_db[sig.src];
    b.coupler_db = lp.coupler_db;
  }
  return b;
}

}  // namespace

LossBreakdown signal_loss(const AnalysisContext& ctx, SignalId id) {
  const mapping::SignalRoute& route = ctx.design().mapping.routes[id];
  switch (route.kind) {
    case mapping::RouteKind::kRingCw:
    case mapping::RouteKind::kRingCcw:
      return ring_route_loss(ctx, id);
    case mapping::RouteKind::kShortcut:
      return shortcut_route_loss(ctx, id);
    case mapping::RouteKind::kCse:
      return cse_route_loss(ctx, id);
    case mapping::RouteKind::kUnrouted:
      break;
  }
  return LossBreakdown{};
}

}  // namespace xring::analysis
