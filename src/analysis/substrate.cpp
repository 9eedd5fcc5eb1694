#include "analysis/substrate.hpp"

#include <algorithm>
#include <numeric>

#include "geom/sweep.hpp"

namespace xring::analysis {

namespace {

bool same_orientation(const geom::Segment& a, const geom::Segment& b) {
  return (a.horizontal() && b.horizontal()) || (a.vertical() && b.vertical());
}

}  // namespace

RingSubstrate::RingSubstrate(const ring::RingGeometry& ring,
                             const netlist::Floorplan& fp) {
  const ring::Tour& tour = ring.tour;
  hops_ = tour.size();
  hop_routes_.reserve(hops_);
  for (int h = 0; h < hops_; ++h) {
    const geom::LOrder order = h < static_cast<int>(ring.hop_orders.size())
                                   ? ring.hop_orders[h]
                                   : geom::LOrder::kVerticalFirst;
    hop_routes_.emplace_back(fp.position(tour.at(h)), fp.position(tour.at(h + 1)),
                             order);
  }

  // Sparse hop-vs-hop crossing rows via the segment index: every hop
  // segment goes in once, then each hop queries its own segments and
  // accumulates crossing counts per partner hop. Querying hop a against
  // the full set yields exactly geom::crossing_count(route_a, route_g) for
  // every partner g (a route's own legs meet at the bend — an endpoint
  // touch, never a crossing — so self pairs contribute nothing).
  geom::SegmentIndex index;
  for (int h = 0; h < hops_; ++h) index.add(hop_routes_[h], h);
  index.build();

  cross_rows_.assign(hops_, {});
  std::vector<int> row_sums(hops_, 0);  // Σ_g hop_crossings(h, g)
  std::vector<int> scratch(hops_, 0);
  std::vector<int> touched;
  for (int h = 0; h < hops_; ++h) {
    touched.clear();
    for (const geom::Segment& s : hop_routes_[h].segments()) {
      index.for_each_crossing(s, [&](int g) {
        if (scratch[g]++ == 0) touched.push_back(g);
      });
    }
    std::sort(touched.begin(), touched.end());
    auto& row = cross_rows_[h];
    row.reserve(touched.size());
    int sum = 0;
    for (const int g : touched) {
      row.emplace_back(g, scratch[g]);
      sum += scratch[g];
      scratch[g] = 0;
    }
    row_sums[h] = sum;
  }

  // Cyclic prefix sums + the crossing-hop bitset.
  const int words = (hops_ + 63) / 64;
  cross_mask_.assign(words, 0);
  cross_prefix_.assign(hops_ + 1, 0);
  len_prefix_.assign(hops_ + 1, 0);
  internal_prefix_.assign(hops_ + 1, 0);
  junction_prefix_.assign(hops_ + 1, 0);
  for (int h = 0; h < hops_; ++h) {
    cross_prefix_[h + 1] = cross_prefix_[h] + row_sums[h];
    if (row_sums[h] > 0) {
      cross_mask_[h >> 6] |= std::uint64_t{1} << (h & 63);
    }
    len_prefix_[h + 1] = len_prefix_[h] + tour.hop_length(h);

    const auto& segs = hop_routes_[h].segments();
    if (segs.empty()) degenerate_hop_ = true;
    int internal = 0;
    for (std::size_t s = 1; s < segs.size(); ++s) {
      if (!same_orientation(segs[s - 1], segs[s])) ++internal;
    }
    internal_prefix_[h + 1] = internal_prefix_[h] + internal;

    const auto& next = hop_routes_[(h + 1) % hops_].segments();
    const int junction = (!segs.empty() && !next.empty() &&
                          !same_orientation(segs.back(), next.front()))
                             ? 1
                             : 0;
    junction_prefix_[h + 1] = junction_prefix_[h] + junction;
  }
}

int RingSubstrate::hop_crossings(int a, int b) const {
  const auto& row = cross_rows_[a];
  const auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const std::pair<int, int>& e, int g) { return e.first < g; });
  return it != row.end() && it->first == b ? it->second : 0;
}

int RingSubstrate::bends_on_arc(int start, int len) const {
  if (len <= 0) return 0;
  if (degenerate_hop_) {
    // Walk fallback: a hop without segments makes the junction terms above
    // meaningless (the walk's `prev` carries across it).
    int bends = 0;
    const geom::Segment* prev = nullptr;
    for (int t = 0; t < len; ++t) {
      for (const geom::Segment& s : hop_routes_[(start + t) % hops_].segments()) {
        if (prev != nullptr && !same_orientation(*prev, s)) ++bends;
        prev = &s;
      }
    }
    return bends;
  }
  // Within-route bends of every covered hop plus the junction bends between
  // consecutive covered hops (len-1 junctions; the closing junction back to
  // the first hop is not walked).
  return static_cast<int>(interval_sum(internal_prefix_, start, len) +
                          interval_sum(junction_prefix_, start, len - 1));
}

DeviceIndex::DeviceIndex(const RouterDesign& design,
                         const mapping::ArcTable& arcs) {
  const ring::Tour& tour = design.ring.tour;
  nodes_ = tour.size();
  const int n_wg = static_cast<int>(design.mapping.waveguides.size());
  const std::size_t cells = static_cast<std::size_t>(n_wg) * nodes_;

  // Counting pass: each cell's count lands one slot to its right, so the
  // running sum turns the arrays into the row-major running counts in place.
  rx_.assign(cells + 1, 0);
  tx_.assign(cells + 1, 0);
  for (int w = 0; w < n_wg; ++w) {
    for (const SignalId id : design.mapping.waveguides[w].signals) {
      const auto& sig = design.traffic.signal(id);
      ++rx_[cell(w, arcs.position(sig.dst)) + 1];
      ++tx_[cell(w, arcs.position(sig.src)) + 1];
    }
  }
  std::partial_sum(rx_.begin(), rx_.end(), rx_.begin());
  std::partial_sum(tx_.begin(), tx_.end(), tx_.begin());

  // Stable CSR fill, one waveguide at a time: every bucket lists its
  // receivers in the waveguide's signal order.
  rx_lists_.resize(static_cast<std::size_t>(rx_.back()));
  std::vector<std::int32_t> cursor(nodes_);
  for (int w = 0; w < n_wg; ++w) {
    std::copy_n(rx_.begin() + static_cast<std::ptrdiff_t>(cell(w, 0)),
                nodes_, cursor.begin());
    for (const SignalId id : design.mapping.waveguides[w].signals) {
      const int pos = arcs.position(design.traffic.signal(id).dst);
      rx_lists_[static_cast<std::size_t>(cursor[pos]++)] =
          Receiver{design.mapping.routes[id].wavelength, id};
    }
  }

  const auto& crossings = design.pdn.crossings_at;
  const bool crossed =
      design.has_pdn && static_cast<int>(crossings.size()) >= n_wg &&
      std::any_of(crossings.begin(), crossings.begin() + n_wg,
                  [](const std::vector<int>& row) {
                    return std::any_of(row.begin(), row.end(),
                                       [](int c) { return c != 0; });
                  });
  if (crossed) {
    pdn_.assign(cells + 1, 0);
    for (int w = 0; w < n_wg; ++w) {
      for (int p = 0; p < nodes_; ++p) {
        pdn_[cell(w, p) + 1] = crossings[w][tour.at(p)];
      }
    }
    std::partial_sum(pdn_.begin(), pdn_.end(), pdn_.begin());
  }

  // Per-shortcut route tables, in ascending signal-id order — the exact
  // scan order of the brute-force all-routes loops they replace.
  const int n_sc = static_cast<int>(design.shortcuts.shortcuts.size());
  chord_rx_.assign(n_sc, {});
  cse_in_counts_.assign(n_sc, {});
  chord_rx_counts_.assign(n_sc, {});
  auto bump = [](std::vector<std::pair<NodeId, int>>& counts, NodeId v) {
    for (auto& [node, c] : counts) {
      if (node == v) {
        ++c;
        return;
      }
    }
    counts.emplace_back(v, 1);
  };
  for (std::size_t i = 0; i < design.mapping.routes.size(); ++i) {
    const mapping::SignalRoute& r = design.mapping.routes[i];
    const auto& sig = design.traffic.signal(static_cast<SignalId>(i));
    if (r.kind == mapping::RouteKind::kShortcut) {
      chord_rx_[r.shortcut].push_back(
          ChordSig{sig.dst, r.wavelength, static_cast<SignalId>(i)});
      bump(chord_rx_counts_[r.shortcut], sig.dst);
    } else if (r.kind == mapping::RouteKind::kCse) {
      const shortcut::CseRoute& c = design.shortcuts.cse_routes[r.cse];
      chord_rx_[c.shortcut_out].push_back(
          ChordSig{sig.dst, r.wavelength, static_cast<SignalId>(i)});
      bump(chord_rx_counts_[c.shortcut_out], sig.dst);
      bump(cse_in_counts_[c.shortcut_in], c.src);
    }
  }
}

}  // namespace xring::analysis
