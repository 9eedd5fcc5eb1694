#pragma once

// The brute-force analysis engine, kept verbatim as the differential oracle
// of the indexed one in src/analysis: the dense O(hops²) crossing matrix,
// per-signal occupied_hops walks, O(|routes|) device rescans and one noise
// walk per wavelength, run strictly serially. Only tests include it; the
// fast path must reproduce evaluate_reference's RouterMetrics byte for byte
// (tests/test_analysis_fastpath.cpp). Do not "optimize" this code.

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/design.hpp"
#include "geom/lshape.hpp"
#include "mapping/wavelength.hpp"
#include "mapping_reference.hpp"
#include "phys/units.hpp"

namespace xring::analysis::reference {

/// Number of receiver drop-MRRs of node `v` on ring waveguide `w` (one per
/// signal terminating there; doubled by the residue-filter MRR of Fig. 5(b)
/// in the loss model, not here).
inline int receivers_at(const RouterDesign& d, int waveguide, NodeId v) {
  int count = 0;
  for (const SignalId id : d.mapping.waveguides[waveguide].signals) {
    if (d.traffic.signal(id).dst == v) ++count;
  }
  return count;
}

/// Number of modulators of node `v` on ring waveguide `w`.
inline int senders_at(const RouterDesign& d, int waveguide, NodeId v) {
  int count = 0;
  for (const SignalId id : d.mapping.waveguides[waveguide].signals) {
    if (d.traffic.signal(id).src == v) ++count;
  }
  return count;
}

/// All signals terminating at node `v` on ring waveguide `w` with
/// wavelength `wl`, in the waveguide's signal order.
inline std::vector<SignalId> receivers_on(const RouterDesign& d, int waveguide,
                                          NodeId v, int wl) {
  std::vector<SignalId> out;
  for (const SignalId id : d.mapping.waveguides[waveguide].signals) {
    if (d.traffic.signal(id).dst == v &&
        d.mapping.routes[id].wavelength == wl) {
      out.push_back(id);
    }
  }
  return out;
}

inline bool same_orientation(const geom::Segment& a, const geom::Segment& b) {
  return (a.horizontal() && b.horizontal()) || (a.vertical() && b.vertical());
}

/// The pre-index AnalysisContext: dense hop-crossing matrix built by
/// all-pairs geom::crossing_count.
class RefContext {
 public:
  explicit RefContext(const RouterDesign& design) : design_(&design) {
    const ring::Tour& tour = design.ring.tour;
    const netlist::Floorplan& fp = *design.floorplan;
    hops_ = tour.size();
    hop_routes_.reserve(hops_);
    for (int h = 0; h < hops_; ++h) {
      const geom::LOrder order =
          h < static_cast<int>(design.ring.hop_orders.size())
              ? design.ring.hop_orders[h]
              : geom::LOrder::kVerticalFirst;
      hop_routes_.emplace_back(fp.position(tour.at(h)),
                               fp.position(tour.at(h + 1)), order);
    }
    hop_cross_.assign(static_cast<std::size_t>(hops_) * hops_, 0);
    for (int a = 0; a < hops_; ++a) {
      for (int b = a + 1; b < hops_; ++b) {
        const int c = geom::crossing_count(hop_routes_[a], hop_routes_[b]);
        hop_cross_[static_cast<std::size_t>(a) * hops_ + b] = c;
        hop_cross_[static_cast<std::size_t>(b) * hops_ + a] = c;
      }
    }
  }

  const RouterDesign& design() const { return *design_; }

  int hop_crossings(int a, int b) const {
    return hop_cross_[static_cast<std::size_t>(a) * hops_ + b];
  }

  int ring_geometry_crossings(const std::vector<int>& hops) const {
    int total = 0;
    for (const int h : hops) {
      for (int g = 0; g < hops_; ++g) {
        total += hop_crossings(h, g);
      }
    }
    return total;
  }

  int bends_on_hops(const std::vector<int>& hops) const {
    int bends = 0;
    const geom::Segment* prev = nullptr;
    for (const int h : hops) {
      for (const geom::Segment& s : hop_routes_[h].segments()) {
        if (prev != nullptr && !same_orientation(*prev, s)) ++bends;
        prev = &s;
      }
    }
    return bends;
  }

 private:
  const RouterDesign* design_;
  int hops_ = 0;
  std::vector<geom::LRoute> hop_routes_;
  std::vector<int> hop_cross_;
};

// --- Losses (pre-index ring_route_loss & friends) -------------------------

inline LossBreakdown ring_route_loss(const RefContext& ctx, SignalId id) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const ring::Tour& tour = d.ring.tour;
  const auto& sig = d.traffic.signal(id);
  const mapping::SignalRoute& route = d.mapping.routes[id];
  const mapping::Direction dir = d.mapping.waveguides[route.waveguide].dir;

  LossBreakdown b;
  const std::vector<int> hops =
      mapping::occupied_hops(tour, sig.src, sig.dst, dir);

  geom::Coord arc_um = 0;
  for (const int h : hops) arc_um += tour.hop_length(h);
  b.path_mm = arc_um / 1000.0 * d.ring_scale(route.waveguide);
  b.propagation_db = b.path_mm * lp.propagation_db_per_mm;

  b.bends = ctx.bends_on_hops(hops);
  b.bend_db = b.bends * lp.bend_db;

  const int rx_mrrs = d.params.crosstalk.residue_filter ? 2 : 1;
  for (const NodeId v :
       mapping::reference::interior_nodes(tour, sig.src, sig.dst, dir)) {
    b.through_mrrs += rx_mrrs * receivers_at(d, route.waveguide, v) +
                      senders_at(d, route.waveguide, v);
    if (d.has_pdn) {
      b.crossings += d.pdn.crossings_at[route.waveguide][v];
    }
  }
  b.through_db = b.through_mrrs * lp.through_db;

  b.crossings += ctx.ring_geometry_crossings(hops);
  b.crossing_db = b.crossings * lp.crossing_db;

  b.modulator_db = lp.modulator_db;
  b.drop_db = lp.drop_db;
  b.photodetector_db = lp.photodetector_db;
  if (d.has_pdn) {
    b.pdn_db = d.pdn.ring_feed_db[route.waveguide][sig.src];
    b.coupler_db = lp.coupler_db;
  }
  return b;
}

/// Mapped CSE routes entering the crossing from shortcut `sc`'s waveguide in
/// the direction leaving node `from_node` (each owns one MRR at the CSE).
inline int cse_mrrs_on(const RouterDesign& d, int sc, NodeId from_node) {
  int count = 0;
  for (std::size_t i = 0; i < d.mapping.routes.size(); ++i) {
    const mapping::SignalRoute& r = d.mapping.routes[i];
    if (r.kind != mapping::RouteKind::kCse) continue;
    const shortcut::CseRoute& c = d.shortcuts.cse_routes[r.cse];
    if (c.shortcut_in == sc && c.src == from_node) ++count;
  }
  return count;
}

/// Receivers listening at `node` on the waveguides of shortcut `sc` flowing
/// toward `node` (direct + CSE arrivals).
inline int shortcut_receivers_at(const RouterDesign& d, int sc, NodeId node) {
  int count = 0;
  for (std::size_t i = 0; i < d.mapping.routes.size(); ++i) {
    const mapping::SignalRoute& r = d.mapping.routes[i];
    const auto& sig = d.traffic.signal(static_cast<SignalId>(i));
    if (sig.dst != node) continue;
    if (r.kind == mapping::RouteKind::kShortcut && r.shortcut == sc) ++count;
    if (r.kind == mapping::RouteKind::kCse &&
        d.shortcuts.cse_routes[r.cse].shortcut_out == sc) {
      ++count;
    }
  }
  return count;
}

inline LossBreakdown shortcut_route_loss(const RefContext& ctx, SignalId id) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const auto& sig = d.traffic.signal(id);
  const mapping::SignalRoute& route = d.mapping.routes[id];
  const shortcut::Shortcut& sc = d.shortcuts.shortcuts[route.shortcut];

  LossBreakdown b;
  b.path_mm = sc.length / 1000.0;
  b.propagation_db = b.path_mm * lp.propagation_db_per_mm;
  const bool straight = geom::axis_aligned(d.floorplan->position(sc.a),
                                           d.floorplan->position(sc.b));
  b.bends = straight ? 0 : 1;
  b.bend_db = b.bends * lp.bend_db;

  if (sc.crossing_partner >= 0) {
    b.crossings = 1;
    b.crossing_db = lp.crossing_db;
    b.through_mrrs += cse_mrrs_on(d, route.shortcut, sig.src);
  }
  b.through_mrrs +=
      (d.params.crosstalk.residue_filter ? 2 : 1) *
      std::max(0, shortcut_receivers_at(d, route.shortcut, sig.dst) - 1);
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

inline LossBreakdown cse_route_loss(const RefContext& ctx, SignalId id) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const auto& sig = d.traffic.signal(id);
  const mapping::SignalRoute& route = d.mapping.routes[id];
  const shortcut::CseRoute& cse = d.shortcuts.cse_routes[route.cse];

  LossBreakdown b;
  b.path_mm = cse.length / 1000.0;
  b.propagation_db = b.path_mm * lp.propagation_db_per_mm;
  b.bends = 2;
  b.bend_db = b.bends * lp.bend_db;

  b.drop_db = 2.0 * lp.drop_db;

  b.through_mrrs += std::max(0, cse_mrrs_on(d, cse.shortcut_in, cse.src) - 1);
  const shortcut::Shortcut& out = d.shortcuts.shortcuts[cse.shortcut_out];
  const NodeId out_from = out.a == cse.dst ? out.b : out.a;
  b.through_mrrs += cse_mrrs_on(d, cse.shortcut_out, out_from);
  b.through_mrrs +=
      (d.params.crosstalk.residue_filter ? 2 : 1) *
      std::max(0, shortcut_receivers_at(d, cse.shortcut_out, sig.dst) - 1);
  b.through_db = b.through_mrrs * lp.through_db;

  b.modulator_db = lp.modulator_db;
  b.photodetector_db = lp.photodetector_db;
  if (d.has_pdn) {
    b.pdn_db = d.pdn.shortcut_feed_db[sig.src];
    b.coupler_db = lp.coupler_db;
  }
  return b;
}

inline LossBreakdown signal_loss(const RefContext& ctx, SignalId id) {
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

// --- Crosstalk (pre-index walks and rescans) ------------------------------

inline constexpr double kNegligibleMw = 1e-15;

struct NoiseSink {
  std::vector<XtalkContribution>& rows;
  SignalId aggressor = -1;
  XtalkSource source = XtalkSource::kPdnLeak;
  NodeId node = -1;

  void deposit(SignalId victim, double power_mw) {
    rows.push_back(XtalkContribution{victim, aggressor, source, node, power_mw});
  }
};

inline void walk_ring_noise(const RefContext& ctx, int w, NodeId at,
                            int wavelength, double power_mw, NoiseSink& sink) {
  if (power_mw < kNegligibleMw) return;
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const ring::Tour& tour = d.ring.tour;
  const mapping::RingWaveguide& wg = d.mapping.waveguides[w];
  const double scale = d.ring_scale(w);
  const int n = tour.size();
  const int step = wg.dir == mapping::Direction::kCw ? 1 : -1;
  const double absorb_db = lp.drop_db + lp.photodetector_db;

  int pos = tour.position(at);
  for (int travelled = 0; travelled < n; ++travelled) {
    const int hop = wg.dir == mapping::Direction::kCw ? pos : pos - 1;
    const double hop_mm = tour.hop_length(hop) / 1000.0 * scale;
    power_mw *= phys::db_to_linear(-hop_mm * lp.propagation_db_per_mm);
    pos += step;
    const NodeId u = tour.at(pos);
    if (power_mw < kNegligibleMw) return;

    const auto receivers = receivers_on(d, w, u, wavelength);
    if (!receivers.empty()) {
      sink.deposit(receivers.front(),
                   power_mw * phys::db_to_linear(-absorb_db));
      return;
    }
    if (wg.opening == u) return;
    const int rx_mrrs = d.params.crosstalk.residue_filter ? 2 : 1;
    double node_db =
        (rx_mrrs * receivers_at(d, w, u) + senders_at(d, w, u)) * lp.through_db;
    if (d.has_pdn) node_db += d.pdn.crossings_at[w][u] * lp.crossing_db;
    power_mw *= phys::db_to_linear(-node_db);
  }
}

inline double power_at_crossing(const RouterDesign& d,
                                const std::vector<double>& laser_mw,
                                SignalId id, const LossBreakdown& loss,
                                double src_to_x_mm) {
  const int wl = d.mapping.routes[id].wavelength;
  const double before_db = loss.pdn_db + loss.coupler_db + loss.modulator_db +
                           src_to_x_mm * d.params.loss.propagation_db_per_mm;
  return laser_mw[wl] * phys::db_to_linear(-before_db);
}

inline double chord_to_crossing_mm(const RouterDesign& d, int sc, NodeId from) {
  const shortcut::Shortcut& s = d.shortcuts.shortcuts[sc];
  if (!s.crossing) return 0.0;
  const geom::Point p = d.floorplan->position(from);
  const geom::LRoute route(p, d.floorplan->position(s.a == from ? s.b : s.a),
                           s.order);
  geom::Coord travelled = 0;
  for (const geom::Segment& seg : route.segments()) {
    if (geom::contains(seg, *s.crossing)) {
      travelled += geom::manhattan(seg.a, *s.crossing);
      break;
    }
    travelled += seg.length();
  }
  return travelled / 1000.0;
}

inline void deliver_shortcut_noise(const RouterDesign& d, int sc, NodeId end,
                                   int wavelength, double power_mw,
                                   double travel_mm, NoiseSink& sink) {
  if (power_mw < kNegligibleMw) return;
  const phys::LossParams& lp = d.params.loss;
  power_mw *= phys::db_to_linear(-travel_mm * lp.propagation_db_per_mm);
  for (std::size_t i = 0; i < d.mapping.routes.size(); ++i) {
    const mapping::SignalRoute& r = d.mapping.routes[i];
    if (r.wavelength != wavelength) continue;
    const auto& sig = d.traffic.signal(static_cast<SignalId>(i));
    if (sig.dst != end) continue;
    const bool on_this_chord =
        (r.kind == mapping::RouteKind::kShortcut && r.shortcut == sc) ||
        (r.kind == mapping::RouteKind::kCse &&
         d.shortcuts.cse_routes[r.cse].shortcut_out == sc);
    if (!on_this_chord) continue;
    sink.deposit(
        static_cast<SignalId>(i),
        power_mw * phys::db_to_linear(-(lp.drop_db + lp.photodetector_db)));
    return;
  }
}

inline void emit_pdn_tap(const RefContext& ctx,
                         const std::vector<double>& laser_mw,
                         const pdn::CrossingTap& tap,
                         std::vector<XtalkContribution>& rows) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const double kx = phys::db_to_linear(d.params.crosstalk.crossing_db);
  NoiseSink sink{rows};
  sink.aggressor = -1;
  sink.source = XtalkSource::kPdnLeak;
  sink.node = tap.node;
  for (int wl = 0; wl < static_cast<int>(laser_mw.size()); ++wl) {
    if (laser_mw[wl] <= 0.0) continue;
    const double leak =
        laser_mw[wl] *
        phys::db_to_linear(-(tap.attenuation_db + lp.coupler_db)) * kx;
    walk_ring_noise(ctx, tap.waveguide, tap.node, wl, leak, sink);
  }
}

inline void emit_signal(const RefContext& ctx,
                        const std::vector<SignalReport>& signals,
                        const std::vector<double>& laser_mw, std::size_t i,
                        std::vector<XtalkContribution>& rows) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const phys::CrosstalkParams& xt = d.params.crosstalk;
  const ring::Tour& tour = d.ring.tour;
  const double kx = phys::db_to_linear(xt.crossing_db);
  const double kres = phys::db_to_linear(xt.mrr_drop_residue_db);
  NoiseSink sink{rows};

  const SignalId id = static_cast<SignalId>(i);
  const mapping::SignalRoute& r = d.mapping.routes[i];
  const auto& sig = d.traffic.signal(id);
  const LossBreakdown& loss = signals[i].loss;

  if (r.kind == mapping::RouteKind::kShortcut) {
    const shortcut::Shortcut& sc = d.shortcuts.shortcuts[r.shortcut];
    if (sc.crossing_partner >= 0) {
      const double to_x_mm = chord_to_crossing_mm(d, r.shortcut, sig.src);
      const double p_at_x =
          power_at_crossing(d, laser_mw, id, loss, to_x_mm);
      const shortcut::Shortcut& partner =
          d.shortcuts.shortcuts[sc.crossing_partner];
      sink.aggressor = id;
      sink.source = XtalkSource::kShortcutCrossing;
      for (const NodeId end : {partner.a, partner.b}) {
        sink.node = end;
        const double rest_mm = partner.length / 1000.0 -
                               chord_to_crossing_mm(d, sc.crossing_partner, end);
        deliver_shortcut_noise(d, sc.crossing_partner, end, r.wavelength,
                               p_at_x * kx, rest_mm, sink);
      }
    }
  }

  if (r.kind == mapping::RouteKind::kCse) {
    const shortcut::CseRoute& cse = d.shortcuts.cse_routes[r.cse];
    const shortcut::Shortcut& in = d.shortcuts.shortcuts[cse.shortcut_in];
    const double to_x_mm = chord_to_crossing_mm(d, cse.shortcut_in, cse.src);
    const double p_at_x = power_at_crossing(d, laser_mw, id, loss, to_x_mm);
    const NodeId far_end = in.a == cse.src ? in.b : in.a;
    const double rest_mm = in.length / 1000.0 - to_x_mm;
    sink.aggressor = id;
    sink.source = XtalkSource::kCseResidue;
    sink.node = far_end;
    deliver_shortcut_noise(d, cse.shortcut_in, far_end, r.wavelength,
                           p_at_x * kres, rest_mm, sink);
  }

  if (!xt.residue_filter && (r.kind == mapping::RouteKind::kRingCw ||
                             r.kind == mapping::RouteKind::kRingCcw)) {
    const double at_receiver =
        laser_mw[r.wavelength] *
        phys::db_to_linear(
            -(loss.total_db() - lp.drop_db - lp.photodetector_db));
    sink.aggressor = id;
    sink.source = XtalkSource::kReceiverResidue;
    sink.node = sig.dst;
    walk_ring_noise(ctx, r.waveguide, sig.dst, r.wavelength,
                    at_receiver * kres, sink);
  }

  if ((r.kind == mapping::RouteKind::kRingCw ||
       r.kind == mapping::RouteKind::kRingCcw) &&
      d.ring.crossings > 0) {
    const mapping::Direction dir = d.mapping.waveguides[r.waveguide].dir;
    sink.aggressor = id;
    sink.source = XtalkSource::kRingCrossing;
    for (const int h : mapping::occupied_hops(tour, sig.src, sig.dst, dir)) {
      for (int g = 0; g < tour.size(); ++g) {
        const int crossings = ctx.hop_crossings(h, g);
        if (crossings == 0) continue;
        const double p = laser_mw[r.wavelength] *
                         phys::db_to_linear(-loss.total_db() / 2.0);
        sink.node = tour.at(g);
        walk_ring_noise(ctx, r.waveguide, tour.at(g), r.wavelength,
                        p * kx * crossings, sink);
      }
    }
  }
}

inline std::vector<XtalkContribution> compute_noise(
    const RefContext& ctx, const std::vector<SignalReport>& signals,
    const std::vector<double>& laser_mw) {
  const RouterDesign& d = ctx.design();
  const long taps = d.has_pdn ? static_cast<long>(d.pdn.taps.size()) : 0;
  const long items = taps + static_cast<long>(d.mapping.routes.size());

  std::vector<XtalkContribution> rows;
  for (long k = 0; k < items; ++k) {
    if (k < taps) {
      emit_pdn_tap(ctx, laser_mw, d.pdn.taps[static_cast<std::size_t>(k)],
                   rows);
    } else {
      emit_signal(ctx, signals, laser_mw, static_cast<std::size_t>(k - taps),
                  rows);
    }
  }
  return rows;
}

/// Brute-force reference evaluation of `design`, run strictly serially.
inline RouterMetrics evaluate_reference(const RouterDesign& design) {
  const RefContext ctx(design);
  const int num_signals = design.traffic.size();

  RouterMetrics m;
  m.wavelengths = design.mapping.wavelengths_used;
  m.waveguides = static_cast<int>(design.mapping.waveguides.size());
  m.signals.resize(num_signals);
  for (SignalId id = 0; id < num_signals; ++id) {
    m.signals[id].loss = signal_loss(ctx, id);
  }

  std::vector<double>& laser_mw = m.laser_mw;
  laser_mw.assign(std::max(1, design.mapping.wavelengths_used), 0.0);
  for (SignalId id = 0; id < num_signals; ++id) {
    const int wl = design.mapping.routes[id].wavelength;
    if (wl < 0) continue;
    laser_mw[wl] = std::max(
        laser_mw[wl],
        phys::laser_power_mw(m.signals[id].loss.total_db(),
                             design.params.loss.receiver_sensitivity_dbm));
  }

  m.xtalk_ledger = compute_noise(ctx, m.signals, laser_mw);
  for (const XtalkContribution& row : m.xtalk_ledger) {
    m.signals[row.victim].noise_mw += row.noise_mw;
  }

  int worst = -1;
  for (SignalId id = 0; id < num_signals; ++id) {
    SignalReport& r = m.signals[id];
    const double il_db = r.loss.total_db();
    const int wl = design.mapping.routes[id].wavelength;
    const double received_mw =
        wl >= 0 ? laser_mw[wl] * phys::db_to_linear(-il_db) : 0.0;
    r.snr_db = r.noise_mw > design.params.crosstalk.noise_floor_mw
                   ? 10.0 * std::log10(received_mw / r.noise_mw)
                   : kNoNoiseSnr;

    m.il_worst_db = std::max(m.il_worst_db, il_db);
    if (worst < 0 || r.loss.star_db() > m.signals[worst].loss.star_db()) {
      worst = id;
    }
    if (r.snr_db < kNoNoiseSnr) {
      ++m.noisy_signals;
      m.snr_worst_db = std::min(m.snr_worst_db, r.snr_db);
    }
  }
  if (worst >= 0) {
    m.il_star_worst_db = m.signals[worst].loss.star_db();
    m.worst_path_mm = m.signals[worst].loss.path_mm;
    m.worst_crossings = m.signals[worst].loss.crossings;
  }

  double total_mw = 0.0;
  for (const double p : laser_mw) total_mw += p;
  m.total_power_w =
      total_mw / 1000.0 / design.params.loss.laser_wall_plug_efficiency;

  return m;
}

}  // namespace xring::analysis::reference
