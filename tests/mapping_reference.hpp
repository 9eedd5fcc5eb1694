#pragma once

// The brute-force Step-3 predicates, kept verbatim as the differential
// oracle of the incremental OccupancyIndex in src/mapping: per-probe
// occupied_hops / interior-node derivation and a rescan of every
// co-resident signal. Only tests include it; OccupancyIndex::find_first_fit
// and OccupancyIndex::passing_count must agree with these exactly
// (tests/test_mapping_index.cpp, tests/test_mapping_fastpath.cpp). Do not
// "optimize" this code.

#include <utility>
#include <vector>

#include "mapping/wavelength.hpp"

namespace xring::mapping::reference {

/// Interior nodes of the occupied arc (nodes the signal passes *through*;
/// endpoints excluded). A waveguide opening at any of these blocks the path.
inline std::vector<NodeId> interior_nodes(const ring::Tour& tour, NodeId src,
                                          NodeId dst, Direction dir) {
  const NodeId from = dir == Direction::kCw ? src : dst;
  const NodeId to = dir == Direction::kCw ? dst : src;
  std::vector<NodeId> out;
  const int hops = tour.hops_cw(from, to);
  const int start = tour.position(from);
  for (int h = 1; h < hops; ++h) out.push_back(tour.at(start + h));
  return out;
}

/// True if the signal can be added to (waveguide, wavelength) without arc
/// overlap with same-wavelength signals and without passing the waveguide's
/// opening (when already fixed).
inline bool fits(const ring::Tour& tour, const netlist::Traffic& traffic,
                 const Mapping& mapping, int waveguide, int wavelength,
                 SignalId signal) {
  const RingWaveguide& w = mapping.waveguides[waveguide];
  const auto& sig = traffic.signal(signal);

  // An already-fixed opening must not lie inside the signal's arc.
  if (w.opening != -1) {
    for (const NodeId v : interior_nodes(tour, sig.src, sig.dst, w.dir)) {
      if (v == w.opening) return false;
    }
  }

  const std::vector<int> mine = occupied_hops(tour, sig.src, sig.dst, w.dir);
  std::vector<bool> covered(tour.size(), false);
  for (const int h : mine) covered[h] = true;

  for (const SignalId other : w.signals) {
    if (other == signal) continue;
    if (mapping.routes[other].wavelength != wavelength) continue;
    const auto& o = traffic.signal(other);
    for (const int h : occupied_hops(tour, o.src, o.dst, w.dir)) {
      if (covered[h]) return false;
    }
  }
  return true;
}

/// Every (waveguide, wavelength) slot under the cap that fits the signal on
/// a waveguide of `dir` other than `from_waveguide`, in probe order
/// (waveguide ascending, then wavelength).
inline std::vector<std::pair<int, int>> fit_list(
    const ring::Tour& tour, const netlist::Traffic& traffic,
    const Mapping& mapping, Direction dir, SignalId signal,
    int from_waveguide, int max_wavelengths) {
  std::vector<std::pair<int, int>> out;
  for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
    if (w == from_waveguide || mapping.waveguides[w].dir != dir) continue;
    for (int wl = 0; wl < max_wavelengths; ++wl) {
      if (fits(tour, traffic, mapping, w, wl, signal)) out.emplace_back(w, wl);
    }
  }
  return out;
}

/// Number of signals on waveguide `w` whose arc passes *through* `node`.
inline int passing_signals(const ring::Tour& tour,
                           const netlist::Traffic& traffic,
                           const Mapping& mapping, int w, NodeId node) {
  int count = 0;
  const RingWaveguide& wg = mapping.waveguides[w];
  for (const SignalId id : wg.signals) {
    const auto& sig = traffic.signal(id);
    for (const NodeId v : interior_nodes(tour, sig.src, sig.dst, wg.dir)) {
      if (v == node) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace xring::mapping::reference
