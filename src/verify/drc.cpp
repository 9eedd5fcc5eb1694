#include "verify/drc.hpp"

#include <algorithm>
#include <sstream>

#include "geom/sweep.hpp"
#include "obs/obs.hpp"

namespace xring::verify {

namespace {

using analysis::RouterDesign;
using mapping::Direction;
using mapping::RouteKind;
using netlist::NodeId;
using netlist::SignalId;

/// Paper constraint: "a network node can only have at most one shortcut".
constexpr int kMaxShortcutsPerNode = 1;

void add(std::vector<Violation>& out, Violation::Rule rule,
         const std::string& message) {
  out.push_back(Violation{rule, message});
}

void check_ring(const RouterDesign& d, std::vector<Violation>& out) {
  if (d.ring.crossings > 0) {
    add(out, Violation::Rule::kRingCrossing,
        "ring realization contains " + std::to_string(d.ring.crossings) +
            " crossing(s)");
  }
}

void check_shortcuts(const RouterDesign& d, std::vector<Violation>& out) {
  // One sorted index over the ring polyline answers every chord-vs-ring
  // query in O(log ring + candidates); each candidate is confirmed with the
  // exact geom::crosses predicate, so the count matches
  // Polyline::crossings_with segment for segment.
  const geom::SegmentIndex ring_index(d.ring.polyline);
  std::vector<int> uses(d.floorplan->size(), 0);
  for (std::size_t i = 0; i < d.shortcuts.shortcuts.size(); ++i) {
    const shortcut::Shortcut& s = d.shortcuts.shortcuts[i];
    uses[s.a]++;
    uses[s.b]++;
    const geom::LRoute chord(d.floorplan->position(s.a),
                             d.floorplan->position(s.b), s.order);
    if (ring_index.count_crossings(chord) > 0) {
      add(out, Violation::Rule::kChordCrossesRing,
          "shortcut " + std::to_string(s.a) + "-" + std::to_string(s.b) +
              " crosses a ring waveguide");
    }
    if (s.crossing_partner >= 0) {
      const shortcut::Shortcut& p = d.shortcuts.shortcuts[s.crossing_partner];
      if (p.crossing_partner != static_cast<int>(i)) {
        add(out, Violation::Rule::kChordOverdegree,
            "shortcut " + std::to_string(i) + " has a non-mutual partner");
      }
    }
  }
  for (NodeId v = 0; v < d.floorplan->size(); ++v) {
    if (uses[v] > kMaxShortcutsPerNode) {
      add(out, Violation::Rule::kShortcutNodeCap,
          "node " + std::to_string(v) + " has " + std::to_string(uses[v]) +
              " shortcuts (cap " + std::to_string(kMaxShortcutsPerNode) +
              ")");
    }
  }
}

void check_routes(const RouterDesign& d, const DrcOptions& opt,
                  std::vector<Violation>& out) {
  for (std::size_t i = 0; i < d.mapping.routes.size(); ++i) {
    const mapping::SignalRoute& r = d.mapping.routes[i];
    if (r.kind == RouteKind::kUnrouted || r.wavelength < 0) {
      add(out, Violation::Rule::kUnroutedSignal,
          "signal " + std::to_string(i) + " is unrouted");
      continue;
    }
    if (opt.max_wavelengths > 0 &&
        (r.kind == RouteKind::kRingCw || r.kind == RouteKind::kRingCcw) &&
        r.wavelength >= opt.max_wavelengths) {
      add(out, Violation::Rule::kWavelengthCap,
          "signal " + std::to_string(i) + " uses wavelength " +
              std::to_string(r.wavelength) + " beyond the cap");
    }
  }
}

/// The hop interval [start, start+len) mod n that a signal riding a
/// waveguide of direction `dir` covers, derived from the tour alone.
struct HopArc {
  int start = 0;
  int len = 0;
};

/// (to - from) mod n, for positions in [0, n).
int cw_offset(int from, int to, int n) {
  const int d = to - from;
  return d < 0 ? d + n : d;
}

HopArc hop_arc(const ring::Tour& tour, const netlist::Signal& sig,
               Direction dir) {
  const int from = tour.position(dir == Direction::kCw ? sig.src : sig.dst);
  const int to = tour.position(dir == Direction::kCw ? sig.dst : sig.src);
  return {from, cw_offset(from, to, tour.size())};
}

/// A non-empty arc of one waveguide: its wavelength and hop interval
/// [start, end), end = start + len (may pass n).
struct SlotArc {
  int wavelength;
  int start;
  int end;
};

/// True when two same-wavelength arcs share a hop. Sorted by (wavelength,
/// start), one wavelength's arcs are pairwise disjoint iff each ends at or
/// before the next one's start, and the last at or before the first's
/// start + n (the wrap).
bool has_arc_overlap(std::vector<SlotArc>& arcs, int n) {
  std::sort(arcs.begin(), arcs.end(), [](const SlotArc& x, const SlotArc& y) {
    return x.wavelength != y.wavelength ? x.wavelength < y.wavelength
                                        : x.start < y.start;
  });
  for (std::size_t lo = 0; lo < arcs.size();) {
    std::size_t hi = lo + 1;
    while (hi < arcs.size() && arcs[hi].wavelength == arcs[lo].wavelength) {
      ++hi;
    }
    for (std::size_t k = lo; k < hi; ++k) {
      const int next = k + 1 < hi ? arcs[k + 1].start : arcs[lo].start + n;
      if (arcs[k].end > next) return true;
    }
    lo = hi;
  }
  return false;
}

void check_arcs(const RouterDesign& d, std::vector<Violation>& out) {
  const ring::Tour& tour = d.ring.tour;
  const int n = tour.size();
  if (n == 0) return;
  std::vector<SlotArc> sorted;
  for (std::size_t w = 0; w < d.mapping.waveguides.size(); ++w) {
    const mapping::RingWaveguide& wg = d.mapping.waveguides[w];
    sorted.clear();
    for (const SignalId id : wg.signals) {
      const HopArc a = hop_arc(tour, d.traffic.signal(id), wg.dir);
      if (a.len > 0) {
        sorted.push_back({d.mapping.routes[id].wavelength, a.start,
                          a.start + a.len});
      }
    }
    if (!has_arc_overlap(sorted, n)) continue;
    // A flagged waveguide reports every overlapping pair, in pair order.
    std::vector<HopArc> arcs;
    for (const SignalId id : wg.signals) {
      arcs.push_back(hop_arc(tour, d.traffic.signal(id), wg.dir));
    }
    for (std::size_t i = 0; i < wg.signals.size(); ++i) {
      for (std::size_t j = i + 1; j < wg.signals.size(); ++j) {
        const SignalId a = wg.signals[i], b = wg.signals[j];
        if (d.mapping.routes[a].wavelength != d.mapping.routes[b].wavelength) {
          continue;
        }
        // Two non-empty circular hop intervals intersect iff one starts
        // inside the other.
        const HopArc& x = arcs[i];
        const HopArc& y = arcs[j];
        const bool overlap = x.len > 0 && y.len > 0 &&
                             (cw_offset(x.start, y.start, n) < x.len ||
                              cw_offset(y.start, x.start, n) < y.len);
        if (overlap) {
          add(out, Violation::Rule::kArcOverlap,
              "signals " + std::to_string(a) + " and " + std::to_string(b) +
                  " overlap on waveguide " + std::to_string(w) +
                  " wavelength " +
                  std::to_string(d.mapping.routes[a].wavelength));
        }
      }
    }
  }
}

void check_openings(const RouterDesign& d, const DrcOptions& opt,
                    std::vector<Violation>& out) {
  if (!d.has_pdn || !opt.require_openings) return;
  const ring::Tour& tour = d.ring.tour;
  const int n = tour.size();
  for (std::size_t w = 0; w < d.mapping.waveguides.size(); ++w) {
    const mapping::RingWaveguide& wg = d.mapping.waveguides[w];
    if (wg.opening < 0) {
      add(out, Violation::Rule::kOpeningMissing,
          "waveguide " + std::to_string(w) + " has no opening");
      continue;
    }
    // A signal passes the opening when the opening is strictly inside its
    // hop interval, i.e. one of its interior nodes.
    int passing = 0;
    if (n > 0 && !wg.signals.empty()) {
      const int pos = tour.position(wg.opening);
      for (const SignalId id : wg.signals) {
        const HopArc a = hop_arc(tour, d.traffic.signal(id), wg.dir);
        const int offset = cw_offset(a.start, pos, n);
        if (0 < offset && offset < a.len) ++passing;
      }
    }
    if (passing > 0) {
      add(out, Violation::Rule::kOpeningBlocked,
          std::to_string(passing) + " signal(s) pass the opening of waveguide " +
              std::to_string(w));
    }
  }
}

void check_pdn(const RouterDesign& d, std::vector<Violation>& out) {
  if (!d.has_pdn) return;
  for (std::size_t i = 0; i < d.mapping.routes.size(); ++i) {
    const mapping::SignalRoute& r = d.mapping.routes[i];
    const auto& sig = d.traffic.signal(static_cast<SignalId>(i));
    if (r.kind == RouteKind::kRingCw || r.kind == RouteKind::kRingCcw) {
      if (r.waveguide >= static_cast<int>(d.pdn.ring_feed_db.size()) ||
          d.pdn.ring_feed_db[r.waveguide][sig.src] < 0) {
        add(out, Violation::Rule::kPdnMissingFeed,
            "ring sender of signal " + std::to_string(i) + " has no PDN feed");
      }
    } else if (r.kind == RouteKind::kShortcut || r.kind == RouteKind::kCse) {
      if (sig.src >= static_cast<NodeId>(d.pdn.shortcut_feed_db.size()) ||
          d.pdn.shortcut_feed_db[sig.src] < 0) {
        add(out, Violation::Rule::kPdnMissingFeed,
            "shortcut sender of signal " + std::to_string(i) +
                " has no PDN feed");
      }
    }
  }
}

void check_cse_wavelengths(const RouterDesign& d, std::vector<Violation>& out) {
  // Crossed shortcut pairs must not share a wavelength between their direct
  // signals (Sec. III-C), or the crossing leak lands on a matched receiver.
  // Grouping the direct routes per shortcut up front (ascending signal id —
  // the inner all-routes scan order) turns the O(routes²) pairing into
  // O(routes + clashes).
  std::vector<std::vector<std::size_t>> direct(d.shortcuts.shortcuts.size());
  for (std::size_t i = 0; i < d.mapping.routes.size(); ++i) {
    const mapping::SignalRoute& r = d.mapping.routes[i];
    if (r.kind == RouteKind::kShortcut) direct[r.shortcut].push_back(i);
  }
  for (std::size_t i = 0; i < d.mapping.routes.size(); ++i) {
    const mapping::SignalRoute& ri = d.mapping.routes[i];
    if (ri.kind != RouteKind::kShortcut) continue;
    const shortcut::Shortcut& si = d.shortcuts.shortcuts[ri.shortcut];
    if (si.crossing_partner < 0) continue;
    for (const std::size_t j : direct[si.crossing_partner]) {
      const mapping::SignalRoute& rj = d.mapping.routes[j];
      if (ri.wavelength == rj.wavelength) {
        add(out, Violation::Rule::kCseWavelengthClash,
            "crossed shortcuts " + std::to_string(ri.shortcut) + " and " +
                std::to_string(rj.shortcut) + " share wavelength " +
                std::to_string(ri.wavelength));
      }
    }
  }
}

}  // namespace

std::string to_string(Violation::Rule rule) {
  switch (rule) {
    case Violation::Rule::kRingCrossing: return "ring-crossing";
    case Violation::Rule::kChordCrossesRing: return "chord-crosses-ring";
    case Violation::Rule::kChordOverdegree: return "chord-overdegree";
    case Violation::Rule::kUnroutedSignal: return "unrouted-signal";
    case Violation::Rule::kWavelengthCap: return "wavelength-cap";
    case Violation::Rule::kArcOverlap: return "arc-overlap";
    case Violation::Rule::kOpeningMissing: return "opening-missing";
    case Violation::Rule::kOpeningBlocked: return "opening-blocked";
    case Violation::Rule::kShortcutNodeCap: return "shortcut-node-cap";
    case Violation::Rule::kPdnMissingFeed: return "pdn-missing-feed";
    case Violation::Rule::kCseWavelengthClash: return "cse-wavelength-clash";
  }
  return "unknown";
}

std::vector<Violation> check(const analysis::RouterDesign& design,
                             const DrcOptions& options) {
  obs::Span span("verify.drc");
  std::vector<Violation> out;
  // The arc and opening checks derive every hop interval from the tour
  // alone and share no code with the mapper's ArcTable, so a bug there
  // cannot sign off its own output.
  check_ring(design, out);
  check_shortcuts(design, out);
  check_routes(design, options, out);
  check_arcs(design, out);
  check_openings(design, options, out);
  check_pdn(design, out);
  check_cse_wavelengths(design, out);
  // Every violation doubles as a structured diagnostic (code drc.<rule>),
  // so run reports show DRC results next to the solver/analysis events.
  for (const Violation& v : out) {
    obs::diagnose(obs::Severity::kError, "drc." + to_string(v.rule), v.message,
                  {{"rule", to_string(v.rule)}});
  }
  if (obs::enabled()) {
    obs::registry().counter("drc.checks").add();
    obs::registry().counter("drc.violations").add(
        static_cast<long long>(out.size()));
  }
  return out;
}

std::string report(const std::vector<Violation>& violations) {
  if (violations.empty()) return "clean\n";
  std::ostringstream out;
  for (const Violation& v : violations) {
    out << "[" << to_string(v.rule) << "] " << v.message << "\n";
  }
  return out.str();
}

}  // namespace xring::verify
