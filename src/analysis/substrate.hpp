#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/design.hpp"
#include "geom/lshape.hpp"
#include "mapping/occupancy.hpp"
#include "ring/tour.hpp"

namespace xring::analysis {

/// Geometry-only analysis substrate of one realized ring: per-hop L-routes,
/// the hop-vs-hop crossing structure (kept sparse — legal constructions
/// have none at all), and cyclic prefix sums over hop lengths, bends and
/// crossing row-sums so any contiguous arc query is O(1) instead of
/// O(arc × n).
///
/// The substrate depends only on (ring geometry, floorplan) — not on the
/// mapping, the PDN or `#wl` — so a `#wl` sweep builds one instance and
/// shares it read-only across every setting (see xring::SweepCache). It is
/// immutable after construction.
class RingSubstrate {
 public:
  RingSubstrate() = default;
  RingSubstrate(const ring::RingGeometry& ring, const netlist::Floorplan& fp);

  bool empty() const { return hops_ == 0; }
  int hops() const { return hops_; }

  /// Crossings between the realized routes of hops a and b (sparse lookup;
  /// zero for the vast majority of pairs).
  int hop_crossings(int a, int b) const;

  /// Sorted (other hop, crossing count) row of hop h — exactly the nonzero
  /// entries the dense matrix row would hold, ascending by hop index.
  const std::vector<std::pair<int, int>>& cross_row(int h) const {
    return cross_rows_[h];
  }

  /// Σ_g hop_crossings(h, g) summed over the cyclic hop interval
  /// [start, start+len) — the ring-geometry crossings a signal covering
  /// that arc passes (a crossing between two covered hops counts twice).
  int crossings_on_arc(int start, int len) const {
    return static_cast<int>(interval_sum(cross_prefix_, start, len));
  }

  /// Direction changes along the concatenated routes of the cyclic hop
  /// interval [start, start+len): within-route bends plus the junction
  /// bends between consecutive covered hops. Identical to walking the hop
  /// sequence segment by segment.
  int bends_on_arc(int start, int len) const;

  /// Σ of hop Manhattan lengths (µm) over the cyclic interval.
  geom::Coord length_on_arc(int start, int len) const {
    return static_cast<geom::Coord>(interval_sum(len_prefix_, start, len));
  }

  /// Hop bitset (one bit per hop, 64-bit words, the layout
  /// mapping::ArcTable::overlaps reads): bit h set iff hop h participates
  /// in at least one crossing. One overlaps() query of a signal's arc
  /// against it answers "does this signal pass any residual crossing".
  const std::vector<std::uint64_t>& cross_hop_mask() const {
    return cross_mask_;
  }

 private:
  /// Σ prefix[i] for i in the cyclic interval [start, start+len), where
  /// prefix has size hops_+1 and start is in [0, hops_).
  long long interval_sum(const std::vector<long long>& prefix, int start,
                         int len) const {
    if (len <= 0) return 0;
    const int end = start + len;
    if (end <= hops_) return prefix[end] - prefix[start];
    return (prefix[hops_] - prefix[start]) + prefix[end - hops_];
  }

  int hops_ = 0;
  std::vector<geom::LRoute> hop_routes_;
  std::vector<std::vector<std::pair<int, int>>> cross_rows_;
  std::vector<long long> cross_prefix_;     ///< row sums, size hops_+1
  std::vector<long long> len_prefix_;       ///< hop lengths, size hops_+1
  std::vector<long long> internal_prefix_;  ///< within-route bends
  std::vector<long long> junction_prefix_;  ///< bend between hop h and h+1
  std::vector<std::uint64_t> cross_mask_;
  /// A hop whose route has no segments (coincident endpoints) breaks the
  /// junction decomposition; bends_on_arc then falls back to the walk.
  bool degenerate_hop_ = false;
};

/// Mapping-dependent device lookup tables for one RouterDesign, flat at
/// ~8 bytes per (waveguide, tour position) cell:
///  * per device kind (receivers, senders, PDN crossings) one int32 running
///    count over the cells (w, pos) in row-major order, W·n+1 entries. A
///    cell's count is an adjacent difference, an arc's interior sum two;
///  * the receiver running count doubles as the CSR offsets of the
///    per-cell receiver lists, filled stably in the waveguide's signal
///    order — the first-match order the crosstalk walk scans;
///  * the PDN-crossing count only when some ring waveguide is crossed at
///    all (comb PDNs; the tree PDN is crossing-free, so XRing skips it);
///  * per-shortcut route tables (O(signals)).
/// Built once per evaluation in O(signals + waveguides·n); every query the
/// loss and crosstalk engines issue afterwards is O(1) or O(devices at the
/// queried node). tests/analysis_reference.hpp keeps the brute-force
/// rescans these replace as the differential reference.
class DeviceIndex {
 public:
  /// One receiver of a (waveguide, position) cell: its signal's wavelength
  /// and id.
  struct Receiver {
    int wl;
    SignalId id;
  };

  DeviceIndex() = default;
  DeviceIndex(const RouterDesign& design, const mapping::ArcTable& arcs);

  /// Receivers / senders terminating / starting at tour position `pos` on
  /// waveguide `w`.
  int receivers_at(int w, int pos) const { return cell_count(rx_, w, pos); }
  int senders_at(int w, int pos) const { return cell_count(tx_, w, pos); }
  /// PDN crossings at the node occupying tour position `pos` (0 when no
  /// PDN branch crosses a ring waveguide).
  int pdn_crossings_at(int w, int pos) const {
    return pdn_.empty() ? 0 : cell_count(pdn_, w, pos);
  }

  /// Σ receivers_at / senders_at / pdn_crossings_at over the arc's interior
  /// positions (start+1 .. start+len-1) — the interior-node device scan of
  /// ring_route_loss as one O(1) running-count query each.
  int rx_on_interior(int w, int start, int len) const {
    return interior_sum(rx_, w, start, len);
  }
  int tx_on_interior(int w, int start, int len) const {
    return interior_sum(tx_, w, start, len);
  }
  int pdn_on_interior(int w, int start, int len) const {
    return pdn_.empty() ? 0 : interior_sum(pdn_, w, start, len);
  }

  /// The receivers at tour position `pos` on waveguide `w`, in the
  /// waveguide's signal order (the first one of a wavelength is the drop-MRR
  /// that absorbs noise on it).
  std::span<const Receiver> receivers(int w, int pos) const {
    const std::size_t c = cell(w, pos);
    return {rx_lists_.data() + rx_[c], rx_lists_.data() + rx_[c + 1]};
  }

  /// Mapped CSE routes entering shortcut `sc`'s crossing from node `from`
  /// (loss.cpp's cse_mrrs_on without the all-routes rescan).
  int cse_mrrs_on(int sc, NodeId from) const {
    return count_in(cse_in_counts_[sc], from);
  }

  /// Receivers listening at `node` on the waveguides of shortcut `sc`
  /// (direct + CSE arrivals) — loss.cpp's shortcut_receivers_at.
  int shortcut_receivers_at(int sc, NodeId node) const {
    return count_in(chord_rx_counts_[sc], node);
  }

  /// First route (ascending signal id — the order deliver_shortcut_noise
  /// scans) terminating at `end` with wavelength `wl` whose path leaves
  /// chord `sc` toward `end` (direct shortcut ride or CSE exit); -1 none.
  SignalId chord_receiver(int sc, NodeId end, int wl) const {
    for (const ChordSig& e : chord_rx_[sc]) {
      if (e.wl == wl && e.dst == end) return e.id;
    }
    return -1;
  }

 private:
  struct ChordSig {
    NodeId dst;
    int wl;
    SignalId id;
  };

  std::size_t cell(int w, int pos) const {
    return static_cast<std::size_t>(w) * nodes_ + pos;
  }

  int cell_count(const std::vector<std::int32_t>& run, int w, int pos) const {
    const std::size_t c = cell(w, pos);
    return run[c + 1] - run[c];
  }

  /// Σ of waveguide w's cell counts over the interior of the cyclic arc;
  /// `row[p]` is the running count before position p of that waveguide.
  int interior_sum(const std::vector<std::int32_t>& run, int w, int start,
                   int len) const {
    if (len <= 1) return 0;
    const std::int32_t* row = run.data() + cell(w, 0);
    const int s = (start + 1) % nodes_;
    const int end = s + (len - 1);
    if (end <= nodes_) return row[end] - row[s];
    return (row[nodes_] - row[s]) + (row[end - nodes_] - row[0]);
  }

  static int count_in(const std::vector<std::pair<NodeId, int>>& counts,
                      NodeId node) {
    for (const auto& [v, c] : counts) {
      if (v == node) return c;
    }
    return 0;
  }

  int nodes_ = 0;
  std::vector<std::int32_t> rx_, tx_, pdn_;  ///< running counts, W·n+1
  std::vector<Receiver> rx_lists_;           ///< CSR entries, offsets rx_
  std::vector<std::vector<ChordSig>> chord_rx_;             ///< [shortcut]
  std::vector<std::vector<std::pair<NodeId, int>>> cse_in_counts_;
  std::vector<std::vector<std::pair<NodeId, int>>> chord_rx_counts_;
};

}  // namespace xring::analysis
