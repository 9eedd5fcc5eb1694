#include "verify/drc.hpp"

#include <algorithm>
#include <sstream>

#include "geom/sweep.hpp"
#include "mapping/occupancy.hpp"
#include "obs/obs.hpp"

namespace xring::verify {

namespace {

using analysis::RouterDesign;
using mapping::Direction;
using mapping::RouteKind;
using netlist::NodeId;
using netlist::SignalId;

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

void check_shortcuts(const RouterDesign& d, const DrcOptions& opt,
                     std::vector<Violation>& out) {
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
    if (uses[v] > opt.max_shortcuts_per_node) {
      add(out, Violation::Rule::kShortcutNodeCap,
          "node " + std::to_string(v) + " has " + std::to_string(uses[v]) +
              " shortcuts (cap " + std::to_string(opt.max_shortcuts_per_node) +
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

void check_arcs(const RouterDesign& d, const mapping::ArcTable* arcs,
                std::vector<Violation>& out) {
  for (std::size_t w = 0; w < d.mapping.waveguides.size(); ++w) {
    const mapping::RingWaveguide& wg = d.mapping.waveguides[w];
    for (std::size_t i = 0; i < wg.signals.size(); ++i) {
      for (std::size_t j = i + 1; j < wg.signals.size(); ++j) {
        const SignalId a = wg.signals[i], b = wg.signals[j];
        if (d.mapping.routes[a].wavelength != d.mapping.routes[b].wavelength) {
          continue;
        }
        // Hop-interval intersection as an O(n/64) AND of the precomputed
        // arc bitsets — the same set test the occupied_hops bool-vector
        // scan performed, so the (w, i<j) emission order is unchanged.
        const std::uint64_t* ma = arcs->mask(a, wg.dir);
        const std::uint64_t* mb = arcs->mask(b, wg.dir);
        bool overlap = false;
        for (int k = 0; k < arcs->words(); ++k) {
          if ((ma[k] & mb[k]) != 0) {
            overlap = true;
            break;
          }
        }
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

void check_openings(const RouterDesign& d, const mapping::ArcTable* arcs,
                    const DrcOptions& opt, std::vector<Violation>& out) {
  if (!d.has_pdn || !opt.require_openings) return;
  for (std::size_t w = 0; w < d.mapping.waveguides.size(); ++w) {
    const mapping::RingWaveguide& wg = d.mapping.waveguides[w];
    if (wg.opening < 0) {
      add(out, Violation::Rule::kOpeningMissing,
          "waveguide " + std::to_string(w) + " has no opening");
      continue;
    }
    // A signal passes the opening when the opening is one of its interior
    // nodes; interior_contains evaluates that strict-interior predicate per
    // signal in O(1).
    int passing = 0;
    if (!wg.signals.empty()) {
      const int pos = arcs->position(wg.opening);
      for (const SignalId id : wg.signals) {
        if (arcs->interior_contains(id, wg.dir, pos)) ++passing;
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
  // The arc and opening checks share one per-signal hop-interval table
  // (O(signals · n/64) to build, amortized over every pair probe).
  const bool have_tour = design.ring.tour.size() > 0;
  const mapping::ArcTable arcs =
      have_tour ? mapping::ArcTable(design.ring.tour, design.traffic)
                : mapping::ArcTable();
  check_ring(design, out);
  check_shortcuts(design, options, out);
  check_routes(design, options, out);
  check_arcs(design, &arcs, out);
  check_openings(design, &arcs, options, out);
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
