#include "analysis/crosstalk.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "par/pool.hpp"
#include "phys/units.hpp"

namespace xring::analysis {

namespace {

constexpr double kNegligibleMw = 1e-15;

/// Records noise deposits as provenance rows. Callers stamp the
/// aggressor/source/node fields before each walk. The rows are *the* result:
/// evaluate() adds them, in emission order, into the per-victim totals, so
/// the emitters themselves can run on any thread.
struct NoiseSink {
  std::vector<XtalkContribution>& rows;
  SignalId aggressor = -1;
  XtalkSource source = XtalkSource::kPdnLeak;
  NodeId node = -1;

  void deposit(SignalId victim, double power_mw) {
    rows.push_back(XtalkContribution{victim, aggressor, source, node, power_mw});
  }
};

/// The two factors a ring noise walk multiplies by, per (waveguide, hop)
/// and per (waveguide, tour position), each the exact expression the walk
/// used to evaluate at that step (see tests/analysis_reference.hpp). Built
/// once per compute_noise call, and only when something walks: comb-PDN
/// taps, receiver residue without the Fig. 5(b) filter, or a self-crossing
/// ring. The emitters only read them, so they can run on any thread.
struct WalkGains {
  int nodes = 0;
  std::vector<double> hop;   ///< [w·n + h]: propagation over hop h
  std::vector<double> node;  ///< [w·n + p]: devices + PDN crossings at p

  WalkGains() = default;
  explicit WalkGains(const AnalysisContext& ctx) {
    const RouterDesign& d = ctx.design();
    const phys::LossParams& lp = d.params.loss;
    const ring::Tour& tour = d.ring.tour;
    const DeviceIndex& dev = ctx.devices();
    const int n_wg = static_cast<int>(d.mapping.waveguides.size());
    const int rx_mrrs = d.params.crosstalk.residue_filter ? 2 : 1;
    nodes = tour.size();
    hop.resize(static_cast<std::size_t>(n_wg) * nodes);
    node.resize(hop.size());
    for (int w = 0; w < n_wg; ++w) {
      const double scale = d.ring_scale(w);
      double* hop_row = hop.data() + static_cast<std::size_t>(w) * nodes;
      double* node_row = node.data() + static_cast<std::size_t>(w) * nodes;
      for (int p = 0; p < nodes; ++p) {
        const double hop_mm = tour.hop_length(p) / 1000.0 * scale;
        hop_row[p] = phys::db_to_linear(-hop_mm * lp.propagation_db_per_mm);
        double node_db =
            (rx_mrrs * dev.receivers_at(w, p) + dev.senders_at(w, p)) *
            lp.through_db;
        if (d.has_pdn) node_db += dev.pdn_crossings_at(w, p) * lp.crossing_db;
        node_row[p] = phys::db_to_linear(-node_db);
      }
    }
  }
};

/// One wavelength of a ring noise walk: the power still travelling (once
/// absorbed, the deposit) and the absorbing receiver (-1 if none).
struct Lane {
  double power_mw = 0.0;
  SignalId victim = -1;
  bool travelling = false;
};

/// Walks noise injected on ring waveguide `w` at node `at`, travelling the
/// waveguide's transmission direction. Lane k carries wavelength
/// first_wl + k; each lane stops when a wavelength-matched receiver absorbs
/// it, its power turns negligible or a full lap ends, and the opening stops
/// every lane. Each lane's power sees exactly the multiplications, in the
/// same order, that a walk of that wavelength alone applies, and the first
/// receiver in waveguide signal order with a travelling wavelength absorbs
/// it. The deposits go out after the walk in lane (ascending wavelength)
/// order — the order one walk per wavelength emitted them.
void walk_ring_noise(const AnalysisContext& ctx, const WalkGains& gains,
                     int w, NodeId at, int first_wl, std::span<Lane> lanes,
                     NoiseSink& sink) {
  // The travelling lanes, ascending; a lane stopped mid-hop leaves the list
  // at that hop's device step.
  std::vector<int> live;
  live.reserve(lanes.size());
  for (int k = 0; k < static_cast<int>(lanes.size()); ++k) {
    lanes[k].travelling = !(lanes[k].power_mw < kNegligibleMw);
    if (lanes[k].travelling) live.push_back(k);
  }
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const mapping::RingWaveguide& wg = d.mapping.waveguides[w];
  const DeviceIndex& dev = ctx.devices();
  const int n = gains.nodes;
  const bool cw = wg.dir == mapping::Direction::kCw;
  const double absorb =
      phys::db_to_linear(-(lp.drop_db + lp.photodetector_db));
  const double* hop_gain = gains.hop.data() + static_cast<std::size_t>(w) * n;
  const double* node_gain = gains.node.data() + static_cast<std::size_t>(w) * n;
  const int opening = wg.opening >= 0 ? d.ring.tour.position(wg.opening) : -1;

  int p = ctx.arcs().position(at);
  for (int travelled = 0; travelled < n && !live.empty(); ++travelled) {
    // Propagate over the hop to the next node: cw travel from position p
    // crosses hop p, ccw travel crosses hop p-1.
    const int hop = cw ? p : (p == 0 ? n - 1 : p - 1);
    p = cw ? (p + 1 == n ? 0 : p + 1) : hop;
    for (const int k : live) {
      lanes[k].power_mw *= hop_gain[hop];
      if (lanes[k].power_mw < kNegligibleMw) lanes[k].travelling = false;
    }
    // Receiver bank first: a matched drop-MRR absorbs the noise into its
    // photodetector.
    for (const DeviceIndex::Receiver& r : dev.receivers(w, p)) {
      const std::size_t k = static_cast<std::size_t>(r.wl - first_wl);
      if (k >= lanes.size() || !lanes[k].travelling) continue;
      lanes[k].power_mw *= absorb;
      lanes[k].victim = r.id;
      lanes[k].travelling = false;
    }
    // The opening cut sits between the receiver and sender banks.
    if (p == opening) break;
    // Attenuation by the node's off-resonance devices and PDN crossings.
    std::size_t kept = 0;
    for (const int k : live) {
      if (!lanes[k].travelling) continue;
      lanes[k].power_mw *= node_gain[p];
      live[kept++] = k;
    }
    live.resize(kept);
  }
  for (const Lane& lane : lanes) {
    if (lane.victim >= 0) sink.deposit(lane.victim, lane.power_mw);
  }
}

/// Power of signal `id` at the shortcut crossing point, given its laser.
double power_at_crossing(const RouterDesign& d,
                         const std::vector<double>& laser_mw, SignalId id,
                         const LossBreakdown& loss, double src_to_x_mm) {
  const int wl = d.mapping.routes[id].wavelength;
  const double before_db = loss.pdn_db + loss.coupler_db + loss.modulator_db +
                           src_to_x_mm * d.params.loss.propagation_db_per_mm;
  return laser_mw[wl] * phys::db_to_linear(-before_db);
}

/// Distance (mm) from `from` along shortcut `sc`'s chord to its crossing.
double chord_to_crossing_mm(const RouterDesign& d, int sc, NodeId from) {
  const shortcut::Shortcut& s = d.shortcuts.shortcuts[sc];
  if (!s.crossing) return 0.0;
  const geom::Point p = d.floorplan->position(from);
  const geom::LRoute route(p, d.floorplan->position(s.a == from ? s.b : s.a),
                           s.order);
  // Walk the L-route accumulating distance to the crossing point.
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

/// Delivers noise travelling on shortcut `sc`'s waveguide toward `end` to a
/// matched receiver there, attenuated by the remaining chord propagation.
/// The first-matching-route lookup runs on the DeviceIndex's per-chord
/// table (ascending signal id — the scan order of the all-routes loop it
/// replaces).
void deliver_shortcut_noise(const AnalysisContext& ctx, int sc, NodeId end,
                            int wavelength, double power_mw, double travel_mm,
                            NoiseSink& sink) {
  if (power_mw < kNegligibleMw) return;
  const phys::LossParams& lp = ctx.design().params.loss;
  power_mw *= phys::db_to_linear(-travel_mm * lp.propagation_db_per_mm);
  const SignalId victim = ctx.devices().chord_receiver(sc, end, wavelength);
  if (victim < 0) return;
  // The matched drop-MRR absorbs the noise.
  sink.deposit(victim,
               power_mw * phys::db_to_linear(-(lp.drop_db + lp.photodetector_db)));
}

/// Rows from one comb-PDN crossing tap: every wavelength the laser emits
/// leaks a fraction of its continuous-wave power into the crossed
/// waveguide, and all of them walk it together.
void emit_pdn_tap(const AnalysisContext& ctx, const WalkGains& gains,
                  const std::vector<double>& laser_mw,
                  const pdn::CrossingTap& tap,
                  std::vector<XtalkContribution>& rows) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const double kx = phys::db_to_linear(d.params.crosstalk.crossing_db);
  const double tap_gain =
      phys::db_to_linear(-(tap.attenuation_db + lp.coupler_db));
  NoiseSink sink{rows};
  sink.aggressor = -1;
  sink.source = XtalkSource::kPdnLeak;
  sink.node = tap.node;
  std::vector<Lane> lanes(laser_mw.size());
  for (std::size_t wl = 0; wl < laser_mw.size(); ++wl) {
    // A dark laser leaks nothing: its lane stays at 0, below the cutoff.
    if (laser_mw[wl] <= 0.0) continue;
    lanes[wl].power_mw = laser_mw[wl] * tap_gain * kx;
  }
  walk_ring_noise(ctx, gains, tap.waveguide, tap.node, 0, lanes, sink);
}

/// Rows from one aggressor signal (crossing leaks, CSE/receiver residue,
/// residual ring-geometry crossings).
void emit_signal(const AnalysisContext& ctx, const WalkGains& gains,
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

  {
    const SignalId id = static_cast<SignalId>(i);
    const mapping::SignalRoute& r = d.mapping.routes[i];
    const auto& sig = d.traffic.signal(id);
    const LossBreakdown& loss = signals[i].loss;

    // --- 2. Shortcut-pair crossing leaks -------------------------------
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
        // The leak enters the partner chord and drifts toward both of its
        // ends; a matched receiver at either end catches it.
        for (const NodeId end : {partner.a, partner.b}) {
          sink.node = end;
          const double rest_mm =
              partner.length / 1000.0 -
              chord_to_crossing_mm(d, sc.crossing_partner, end);
          deliver_shortcut_noise(ctx, sc.crossing_partner, end, r.wavelength,
                                 p_at_x * kx, rest_mm, sink);
        }
      }
    }

    // --- 3. CSE drop residue --------------------------------------------
    // The fraction of a CSE-switched signal that fails to couple continues
    // straight along the inbound chord to its far end.
    if (r.kind == mapping::RouteKind::kCse) {
      const shortcut::CseRoute& cse = d.shortcuts.cse_routes[r.cse];
      const shortcut::Shortcut& in = d.shortcuts.shortcuts[cse.shortcut_in];
      const double to_x_mm = chord_to_crossing_mm(d, cse.shortcut_in, cse.src);
      const double p_at_x =
          power_at_crossing(d, laser_mw, id, loss, to_x_mm);
      const NodeId far_end = in.a == cse.src ? in.b : in.a;
      const double rest_mm = in.length / 1000.0 - to_x_mm;
      sink.aggressor = id;
      sink.source = XtalkSource::kCseResidue;
      sink.node = far_end;
      deliver_shortcut_noise(ctx, cse.shortcut_in, far_end, r.wavelength,
                             p_at_x * kres, rest_mm, sink);
    }

    // --- 3b. Receiver drop residue (only without the Fig. 5(b) filter) --
    // Without the extra MRR+terminator, the fraction of the signal that is
    // not coupled into its photodetector keeps travelling the waveguide and
    // becomes first-order noise for downstream same-wavelength receivers.
    if (!xt.residue_filter &&
        (r.kind == mapping::RouteKind::kRingCw ||
         r.kind == mapping::RouteKind::kRingCcw)) {
      const double at_receiver =
          laser_mw[r.wavelength] *
          phys::db_to_linear(-(loss.total_db() - lp.drop_db -
                               lp.photodetector_db));
      sink.aggressor = id;
      sink.source = XtalkSource::kReceiverResidue;
      sink.node = sig.dst;
      Lane lane{at_receiver * kres};
      walk_ring_noise(ctx, gains, r.waveguide, sig.dst, r.wavelength,
                      {&lane, 1}, sink);
    }

    // --- 4. Residual ring-geometry crossings ----------------------------
    // Only degraded constructions (Fig. 2(c) ablation) have them: a signal
    // passing such a crossing leaks onto another arc of its own waveguide.
    // Coupling-pair discovery runs on the arc table: one range query of the
    // signal's arc against the substrate's crossing-hop mask rules the
    // whole section out (the overwhelmingly common case), and surviving
    // signals walk only their arc's crossing hops via the sparse rows —
    // visiting exactly the (h, g) pairs the occupied_hops × tour.size()
    // reference loop visited, in the same order.
    if ((r.kind == mapping::RouteKind::kRingCw ||
         r.kind == mapping::RouteKind::kRingCcw) &&
        d.ring.crossings > 0) {
      const mapping::Direction dir = d.mapping.waveguides[r.waveguide].dir;
      const std::vector<std::uint64_t>& crossing_hops =
          ctx.ring().cross_hop_mask();
      if (ctx.arcs().overlaps(id, dir, crossing_hops.data())) {
        const mapping::ArcTable::Arc arc = ctx.arc(id, dir);
        const int n = tour.size();
        sink.aggressor = id;
        sink.source = XtalkSource::kRingCrossing;
        for (int t = 0; t < arc.len; ++t) {
          const int h = (arc.start + t) % n;
          if ((crossing_hops[h >> 6] >> (h & 63) & 1) == 0) continue;
          for (const auto& [g, crossings] : ctx.ring().cross_row(h)) {
            const double p =
                laser_mw[r.wavelength] *
                phys::db_to_linear(-loss.total_db() / 2.0);  // mid-path
            sink.node = tour.at(g);
            Lane lane{p * kx * crossings};
            walk_ring_noise(ctx, gains, r.waveguide, tour.at(g),
                            r.wavelength, {&lane, 1}, sink);
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<XtalkContribution> compute_noise(
    const AnalysisContext& ctx, const std::vector<SignalReport>& signals,
    const std::vector<double>& laser_mw) {
  const RouterDesign& d = ctx.design();

  // Work items: one per PDN crossing tap, then one per aggressor signal —
  // the same order the serial code walked them. Each item only *records*
  // its deposits; the chunks are combined in ascending chunk order, so the
  // rows come out strictly in item order and evaluate() folds them into the
  // totals with the serial accumulation (and its floating-point rounding),
  // no matter how many threads emitted the rows. The chunk partition
  // depends only on (items, grain), never on the thread count.
  const long taps =
      d.has_pdn ? static_cast<long>(d.pdn.taps.size()) : 0;
  const long items = taps + static_cast<long>(d.mapping.routes.size());
  const bool walks = taps > 0 || !d.params.crosstalk.residue_filter ||
                     d.ring.crossings > 0;
  const WalkGains gains = walks ? WalkGains(ctx) : WalkGains();

  using Rows = std::vector<XtalkContribution>;
  par::ThreadPool& pool = par::global_pool();
  const long grain = std::max(1L, items / (8L * pool.jobs()));
  return par::parallel_reduce(
      pool, 0, items, Rows{},
      [&](long k, Rows& acc) {
        if (k < taps) {
          emit_pdn_tap(ctx, gains, laser_mw,
                       d.pdn.taps[static_cast<std::size_t>(k)], acc);
        } else {
          emit_signal(ctx, gains, signals, laser_mw,
                      static_cast<std::size_t>(k - taps), acc);
        }
      },
      [](Rows& out, Rows& chunk) {
        out.insert(out.end(), std::make_move_iterator(chunk.begin()),
                   std::make_move_iterator(chunk.end()));
      },
      grain);
}

}  // namespace xring::analysis
