#include "report/design_report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "report/table.hpp"

namespace xring::report {

void write_design_report(const analysis::RouterDesign& design,
                         const analysis::RouterMetrics& metrics,
                         std::ostream& out) {
  const netlist::Floorplan& fp = *design.floorplan;

  out << "== XRing design report ==\n\n";
  out << "network: " << fp.size() << " nodes, " << design.traffic.size()
      << " signals, die " << fp.die_width() / 1000.0 << " x "
      << fp.die_height() / 1000.0 << " mm\n\n";

  out << "-- Step 1: ring --\n";
  out << "order:";
  for (const netlist::NodeId v : design.ring.tour.order()) {
    out << " " << fp.node(v).name;
  }
  out << "\nlength: " << design.ring.tour.total_length() / 1000.0
      << " mm, crossings: " << design.ring.crossings << "\n\n";

  out << "-- Step 2: shortcuts --\n";
  if (design.shortcuts.shortcuts.empty()) {
    out << "(none)\n";
  }
  for (std::size_t i = 0; i < design.shortcuts.shortcuts.size(); ++i) {
    const shortcut::Shortcut& s = design.shortcuts.shortcuts[i];
    out << "#" << i << " " << fp.node(s.a).name << " <-> " << fp.node(s.b).name
        << "  len " << s.length / 1000.0 << " mm, gain " << s.gain / 1000.0
        << " mm";
    if (s.crossing_partner >= 0) {
      out << ", CSE with #" << s.crossing_partner;
    }
    out << "\n";
  }
  out << "CSE routes mapped: ";
  int cse_mapped = 0;
  for (const auto& r : design.mapping.routes) {
    if (r.kind == mapping::RouteKind::kCse) ++cse_mapped;
  }
  out << cse_mapped << "\n\n";

  out << "-- Step 3: waveguides, wavelengths, openings --\n";
  for (std::size_t w = 0; w < design.mapping.waveguides.size(); ++w) {
    const mapping::RingWaveguide& wg = design.mapping.waveguides[w];
    out << "waveguide " << w << " ("
        << (wg.dir == mapping::Direction::kCw ? "cw" : "ccw") << "): "
        << wg.signals.size() << " signals";
    if (wg.opening >= 0) out << ", opening at " << fp.node(wg.opening).name;
    out << "\n";
  }
  out << "wavelengths used: " << metrics.wavelengths << "\n\n";

  // Occupancy charts: one row per wavelength, one column per tour hop;
  // '#' = hop covered by a signal on that (waveguide, λ), '|' marks the
  // opening. Shows the arc-level wavelength reuse at a glance.
  out << "-- Wavelength occupancy (rows: λ, cols: tour hops) --\n";
  const ring::Tour& tour = design.ring.tour;
  for (std::size_t w = 0; w < design.mapping.waveguides.size(); ++w) {
    const mapping::RingWaveguide& wg = design.mapping.waveguides[w];
    int max_wl = -1;
    for (const auto id : wg.signals) {
      max_wl = std::max(max_wl, design.mapping.routes[id].wavelength);
    }
    out << "waveguide " << w << ":\n";
    for (int wl = 0; wl <= max_wl; ++wl) {
      std::string row(tour.size(), '.');
      for (const auto id : wg.signals) {
        if (design.mapping.routes[id].wavelength != wl) continue;
        const auto& sig = design.traffic.signal(id);
        for (const int h :
             mapping::occupied_hops(tour, sig.src, sig.dst, wg.dir)) {
          row[h] = '#';
        }
      }
      if (wg.opening >= 0) {
        // The cut sits at the opening node: mark the hop leaving it.
        const int hop = wg.dir == mapping::Direction::kCw
                            ? tour.position(wg.opening)
                            : tour.position(wg.opening) - 1;
        const int n_hops = tour.size();
        row[((hop % n_hops) + n_hops) % n_hops] = '|';
      }
      out << "  l" << wl << (wl < 10 ? " " : "") << " " << row << "\n";
    }
  }
  out << "\n";

  out << "-- Step 4: PDN --\n";
  if (!design.has_pdn) {
    out << "(not synthesized)\n";
  } else if (design.pdn.total_crossings == 0) {
    out << "tree PDN, crossing-free, " << design.pdn.tree_edges.size()
        << " channel waveguides, total length "
        << design.pdn.total_length_mm << " mm\n";
  } else {
    out << "comb PDN with " << design.pdn.total_crossings
        << " ring crossings\n";
  }
  out << "\n-- Evaluation --\n";
  out << "worst insertion loss: " << num(metrics.il_worst_db, 2) << " dB ("
      << num(metrics.il_star_worst_db, 2) << " dB excl. PDN)\n";
  out << "worst path: " << num(metrics.worst_path_mm, 1) << " mm, "
      << metrics.worst_crossings << " crossings\n";
  out << "total laser power: " << num(metrics.total_power_w, 3) << " W\n";
  out << "noisy signals: " << metrics.noisy_signals << " (worst SNR "
      << snr(metrics.snr_worst_db) << " dB)\n\n";

  out << "-- Per-signal metrics --\n";
  Table t({"signal", "route", "wl", "il (dB)", "il* (dB)", "path (mm)", "C",
           "SNR (dB)"});
  for (std::size_t i = 0; i < metrics.signals.size(); ++i) {
    const auto& sig = design.traffic.signal(static_cast<int>(i));
    const auto& rep = metrics.signals[i];
    const auto& route = design.mapping.routes[i];
    t.add_row({fp.node(sig.src).name + "->" + fp.node(sig.dst).name,
               mapping::to_string(route.kind),
               std::to_string(route.wavelength), num(rep.loss.total_db(), 2),
               num(rep.loss.star_db(), 2), num(rep.loss.path_mm, 1),
               std::to_string(rep.loss.crossings), snr(rep.snr_db)});
  }
  out << t.to_string();
}

std::string design_report(const analysis::RouterDesign& design,
                          const analysis::RouterMetrics& metrics) {
  std::ostringstream out;
  write_design_report(design, metrics, out);
  return out.str();
}

}  // namespace xring::report
