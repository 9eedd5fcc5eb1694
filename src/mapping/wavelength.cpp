#include "mapping/wavelength.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>

#include "mapping/occupancy.hpp"
#include "obs/obs.hpp"

namespace xring::mapping {

const char* to_string(RouteKind kind) {
  switch (kind) {
    case RouteKind::kRingCw: return "ring-cw";
    case RouteKind::kRingCcw: return "ring-ccw";
    case RouteKind::kShortcut: return "shortcut";
    case RouteKind::kCse: return "cse";
    case RouteKind::kUnrouted: return "unrouted";
  }
  return "unknown";
}

int Mapping::add_waveguide(Direction dir) {
  RingWaveguide w;
  w.dir = dir;
  waveguides.push_back(std::move(w));
  if (dir == Direction::kCw) {
    ++cw_waveguides;
  } else {
    ++ccw_waveguides;
  }
  return static_cast<int>(waveguides.size()) - 1;
}

std::vector<int> occupied_hops(const ring::Tour& tour, NodeId src, NodeId dst,
                               Direction dir) {
  return dir == Direction::kCw ? tour.hops_on_arc_cw(src, dst)
                               : tour.hops_on_arc_cw(dst, src);
}

namespace {

/// First-fit probe over the waveguides of the direction, on the incremental
/// index: same probe order (waveguide index ascending, then wavelength) and
/// same predicate as the brute-force reference (find_first_fit).
/// When every (waveguide, λ) slot under the #wl cap is blocked, a new
/// waveguide is appended; a conflict diagnostic is emitted when an existing
/// waveguide of the direction could not host the signal (i.e. the overflow
/// is a real wavelength conflict, not the first signal of its direction).
std::pair<int, int> place_on_ring(const netlist::Traffic& traffic,
                                  OccupancyIndex& index, Direction dir,
                                  SignalId id) {
  const Mapping& m = index.mapping();
  const OccupancyIndex::Slot slot =
      index.find_first_fit(dir, id, /*from_waveguide=*/-1);
  if (slot.waveguide >= 0) return {slot.waveguide, slot.wavelength};
  const int candidates = m.ring_waveguides(dir);
  if (candidates > 0) {
    const auto& sig = traffic.signal(id);
    obs::diagnose(
        obs::Severity::kWarning, "mapping.wavelength_conflict",
        "signal " + std::to_string(id) + " (" + std::to_string(sig.src) +
            "→" + std::to_string(sig.dst) + ") fits no (waveguide, λ) slot " +
            "under the #wl cap; adding ring waveguide " +
            std::to_string(m.waveguides.size()),
        {{"signal", std::to_string(id)},
         {"direction", dir == Direction::kCw ? "cw" : "ccw"},
         {"waveguides_tried", std::to_string(candidates)},
         {"max_wavelengths", std::to_string(index.max_wavelengths())}});
  }
  return {index.add_waveguide(dir), 0};
}

std::uint64_t pair_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

}  // namespace

void assign_wavelengths(const ring::Tour& tour,
                        const netlist::Traffic& traffic,
                        const shortcut::ShortcutPlan& shortcuts,
                        OccupancyIndex& index) {
  Mapping& m = index.mapping();
  assert(m.waveguides.empty() && "assignment starts from no waveguide");
  m.routes.assign(traffic.size(), SignalRoute{});

  // --- Shortcut-supported signals -------------------------------------
  // Wavelength discipline (Sec. III-C): signals on shortcuts that cross
  // nothing share λ0; a crossed pair uses λ0 and λ1 so the crossing's leak
  // never matches the other shortcut's receivers; CSE-routed signals use λ2
  // upward, distinct from both.
  //
  // Each node lists its incident shortcuts in ascending index, so the first
  // match for a signal is the lowest-indexed shortcut joining its pair —
  // the one ShortcutPlan::find's scan returns.
  std::vector<std::vector<int>> incident;
  for (std::size_t i = 0; i < shortcuts.shortcuts.size(); ++i) {
    const shortcut::Shortcut& s = shortcuts.shortcuts[i];
    const std::size_t hi = static_cast<std::size_t>(std::max(s.a, s.b));
    if (incident.size() <= hi) incident.resize(hi + 1);
    incident[s.a].push_back(static_cast<int>(i));
    if (s.b != s.a) incident[s.b].push_back(static_cast<int>(i));
  }
  for (const auto& sig : traffic.signals()) {
    if (static_cast<std::size_t>(sig.src) >= incident.size()) continue;
    int sc = -1;
    for (const int i : incident[sig.src]) {
      const shortcut::Shortcut& s = shortcuts.shortcuts[i];
      if ((s.a == sig.src ? s.b : s.a) == sig.dst) {
        sc = i;
        break;
      }
    }
    if (sc < 0) continue;
    SignalRoute& r = m.routes[sig.id];
    r.kind = RouteKind::kShortcut;
    r.shortcut = sc;
    const shortcut::Shortcut& s = shortcuts.shortcuts[sc];
    if (s.crossing_partner < 0) {
      r.wavelength = 0;
    } else {
      // The lower-indexed shortcut of the pair takes λ0, its partner λ1.
      r.wavelength = sc < s.crossing_partner ? 0 : 1;
    }
  }

  // CSE-routed signals: only mapped when the CSE path is strictly shorter
  // than the best ring arc (shortcuts must benefit the network). The
  // (src, dst) → signal lookup is built once; like the linear scan it
  // replaces, the first signal with the pair wins.
  if (!shortcuts.cse_routes.empty()) {
    std::unordered_map<std::uint64_t, SignalId> signal_by_pair;
    signal_by_pair.reserve(traffic.signals().size());
    for (const auto& sig : traffic.signals()) {
      signal_by_pair.emplace(pair_key(sig.src, sig.dst), sig.id);
    }
    for (std::size_t c = 0; c < shortcuts.cse_routes.size(); ++c) {
      const shortcut::CseRoute& route = shortcuts.cse_routes[c];
      const auto it = signal_by_pair.find(pair_key(route.src, route.dst));
      if (it == signal_by_pair.end()) continue;
      const auto& sig = traffic.signal(it->second);
      SignalRoute& r = m.routes[sig.id];
      if (r.kind == RouteKind::kShortcut) continue;  // direct shortcut wins
      const geom::Coord ring_len =
          std::min(tour.arc_length_cw(sig.src, sig.dst),
                   tour.arc_length_ccw(sig.src, sig.dst));
      const bool better_than_current =
          r.kind != RouteKind::kCse ||
          route.length < shortcuts.cse_routes[r.cse].length;
      if (route.length < ring_len && better_than_current) {
        r.kind = RouteKind::kCse;
        r.cse = static_cast<int>(c);
        // Fig. 7(b) uses two distinct CSE wavelengths (λ3/λ4 there): CSE
        // routes entering from the pair's lower-indexed shortcut take λ2,
        // those entering from its partner take λ3. This keeps every CSE
        // drop residue off the other CSE route's receiver, which shares
        // the residue's waveguide span.
        r.wavelength = route.shortcut_in < route.shortcut_out ? 2 : 3;
      }
    }
  }

  // --- Ring-routed signals ---------------------------------------------
  // First-fit-decreasing in the shorter direction (the ORing method XRing
  // adopts): longer arcs are placed first because they are hardest to pack.
  std::vector<SignalId> ring_signals;
  for (const auto& sig : traffic.signals()) {
    if (m.routes[sig.id].kind == RouteKind::kUnrouted) {
      ring_signals.push_back(sig.id);
    }
  }
  // Arc lengths are sort keys and direction choices; computed once per
  // signal instead of inside the comparator.
  std::vector<geom::Coord> cw_len(traffic.size()), ccw_len(traffic.size());
  for (const SignalId id : ring_signals) {
    const auto& sig = traffic.signal(id);
    cw_len[id] = tour.arc_length_cw(sig.src, sig.dst);
    ccw_len[id] = tour.arc_length_ccw(sig.src, sig.dst);
  }
  std::stable_sort(ring_signals.begin(), ring_signals.end(),
                   [&](SignalId x, SignalId y) {
                     return std::min(cw_len[x], ccw_len[x]) >
                            std::min(cw_len[y], ccw_len[y]);
                   });

  for (const SignalId id : ring_signals) {
    const Direction dir =
        cw_len[id] <= ccw_len[id] ? Direction::kCw : Direction::kCcw;
    const auto [w, wl] = place_on_ring(traffic, index, dir, id);
    index.place(id, w, wl);
  }

  int max_wl = -1;
  for (const SignalRoute& r : m.routes) max_wl = std::max(max_wl, r.wavelength);
  m.wavelengths_used = max_wl + 1;
  const OccupancyIndex::SearchStats ss = index.take_search_stats();
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    // Per-run maxima: a #wl sweep maps its settings concurrently, and a
    // last-writer value would depend on which setting finished last.
    reg.gauge("mapping.ring_waveguides")
        .max(static_cast<double>(m.waveguides.size()));
    reg.gauge("mapping.wavelengths_used").max(m.wavelengths_used);
    long long shortcut_routes = 0;
    for (const SignalRoute& r : m.routes) {
      if (r.kind == RouteKind::kShortcut || r.kind == RouteKind::kCse) {
        ++shortcut_routes;
      }
    }
    reg.gauge("mapping.shortcut_routes")
        .max(static_cast<double>(shortcut_routes));
    reg.counter("mapping.fits_probes").add(ss.fits_probes);
    reg.counter("mapping.fits_summary_hits").add(ss.fits_summary_hits);
    // Assignment relocates nothing; the key is registered so a run without
    // openings still reports it, as zero.
    reg.counter("mapping.reloc_attempts");
  }
}

Mapping assign_wavelengths(const ring::Tour& tour,
                           const netlist::Traffic& traffic,
                           const shortcut::ShortcutPlan& shortcuts,
                           const MappingOptions& options,
                           const ArcTable* shared_arcs) {
  std::optional<ArcTable> local_arcs;
  if (shared_arcs == nullptr) local_arcs.emplace(tour, traffic);
  Mapping m;
  OccupancyIndex index(shared_arcs ? *shared_arcs : *local_arcs, m,
                       options.max_wavelengths);
  assign_wavelengths(tour, traffic, shortcuts, index);
  return m;
}

}  // namespace xring::mapping
