#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mapping/wavelength.hpp"

namespace xring::mapping {

/// Any set bit at positions [lo, hi) of a bitset of 64-bit words?
/// (0 <= lo, hi <= the bitset's bit count.)
inline bool any_bit_in(const std::uint64_t* bits, int lo, int hi) {
  if (lo >= hi) return false;
  const int wlo = lo >> 6;
  const int whi = (hi - 1) >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (lo & 63);
  const std::uint64_t last = (hi & 63) != 0
                                 ? (std::uint64_t{1} << (hi & 63)) - 1
                                 : ~std::uint64_t{0};
  if (wlo == whi) return (bits[wlo] & first & last) != 0;
  if ((bits[wlo] & first) != 0) return true;
  for (int k = wlo + 1; k < whi; ++k) {
    if (bits[k] != 0) return true;
  }
  return (bits[whi] & last) != 0;
}

/// Precomputed arc geometry of every signal over one (tour, traffic) pair.
///
/// A ring-routed signal occupies a *contiguous* run of tour hops — the cw
/// arc src→dst when riding a clockwise waveguide, the cw arc dst→src when
/// riding a counter-clockwise one. The table stores that run once per
/// signal and direction, as a half-open hop interval [start, start+len)
/// mod n, so the hot predicates of Step 3 become O(1) interval arithmetic
/// or one range query over a hop bitset instead of re-deriving hop or node
/// vectors on every probe.
///
/// The table depends only on (tour, traffic) — not on #wl — so one instance
/// is shared read-only across every setting of a `#wl` sweep (it is
/// immutable after construction and safe to read concurrently); the sweep
/// cache (`SweepCache`) carries it.
class ArcTable {
 public:
  ArcTable() = default;
  ArcTable(const ring::Tour& tour, const netlist::Traffic& traffic);

  bool empty() const { return nodes_ == 0; }
  int nodes() const { return nodes_; }
  /// 64-bit words of a hop bitset over this ring (one bit per hop).
  int words() const { return (nodes_ + 63) / 64; }
  int signals() const { return signal_count_; }

  /// One directed arc: tour position of its first hop plus hop count.
  struct Arc {
    int start = 0;
    int len = 0;
  };

  Arc arc(SignalId id, Direction dir) const { return arcs_[index(id, dir)]; }

  /// True when `bits` (a words()-word hop bitset; bit h is hop h, joining
  /// tour positions h and h+1) has a set bit on one of the arc's hops — a
  /// range query over the arc's one or two linear pieces, split at the wrap.
  bool overlaps(SignalId id, Direction dir, const std::uint64_t* bits) const {
    const Arc a = arcs_[index(id, dir)];
    const int end = a.start + a.len;
    if (end <= nodes_) return any_bit_in(bits, a.start, end);
    return any_bit_in(bits, a.start, nodes_) ||
           any_bit_in(bits, 0, end - nodes_);
  }

  /// True when tour position `pos` is strictly inside the arc — i.e. the
  /// signal passes *through* the node there (endpoints excluded).
  bool interior_contains(SignalId id, Direction dir, int pos) const {
    const Arc a = arcs_[index(id, dir)];
    const int d = pos - a.start;
    const int wrapped = d < 0 ? d + nodes_ : d;
    return wrapped > 0 && wrapped < a.len;
  }

  /// Tour position of a node, O(1) (mirror of Tour::position).
  int position(NodeId node) const { return positions_[node]; }

 private:
  int index(SignalId id, Direction dir) const {
    return (dir == Direction::kCw ? 0 : signal_count_) + id;
  }

  int nodes_ = 0;
  int signal_count_ = 0;
  std::vector<Arc> arcs_;       ///< [direction][signal]
  std::vector<int> positions_;  ///< node id -> tour position
};

/// Incremental mirror of a Mapping's ring-waveguide occupancy.
///
/// Maintains, in lockstep with the Mapping it wraps:
///   - one transposed slot plane per direction. The direction's slots are
///     numbered in probe order: local slot k = (rank of the waveguide among
///     that direction's waveguides) * #wl + λ. Word `free[b*n + h]` has bit j
///     set when local slot 64b + j exists and has hop h free, and word
///     `summary[(b/64)*n + h]` has bit b % 64 set when that `free` word is
///     non-zero. A signal fits a slot iff every hop of its arc is free
///     there, so ANDing the arc's hop words of one block decides 64 slots at
///     once, and ANDing its summary words rules out up to 64 blocks at once.
///     Both arrays are hop-contiguous: a placement touches one run of words;
///   - per-waveguide per-tour-position passing-signal counts, making the
///     opening phase's candidate scoring an array read instead of an
///     O(signals × path) recount per node.
///
/// All mutations of the mapping's ring state must go through this class
/// while an index is live. The search returns exactly the slot a
/// brute-force scan with the reference predicate of
/// tests/mapping_reference.hpp returns (it has no pruning rule, only the
/// predicate evaluated 64 slots at a time), which
/// tests/test_mapping_index.cpp and tests/test_mapping_fastpath.cpp enforce
/// differentially.
class OccupancyIndex {
 public:
  /// Builds the index over the mapping's current ring placements, serving
  /// one #wl cap: `max_wavelengths` slots per waveguide. Throws
  /// std::invalid_argument when `max_wavelengths` < 1, so every Step-3
  /// entry point rejects the cap even when nothing is ring-routed.
  OccupancyIndex(const ArcTable& arcs, Mapping& mapping, int max_wavelengths);

  /// A found (waveguide, wavelength) slot; waveguide < 0 means none fits.
  struct Slot {
    int waveguide = -1;
    int wavelength = -1;
  };

  /// First (waveguide, wavelength) at or after probe position `start` whose
  /// slot fits the signal: its arc overlaps no arc in the slot and does not
  /// pass the waveguide's opening (once fixed). Probe order is waveguide
  /// index ascending over waveguides of `dir` (skipping `from_waveguide`),
  /// wavelength 0..max_wavelengths-1 within each; slot (w, wl) sits at probe
  /// position w * max_wavelengths + wl. From 0 this is exactly the slot the
  /// brute-force first-fit loops of `place_on_ring` / the opening
  /// relocation find. A placed signal must pass its own waveguide as
  /// `from_waveguide`: its own slot reads as occupied.
  Slot find_first_fit(Direction dir, SignalId id, int from_waveguide,
                      int start = 0) const;

  /// Number of signals on `waveguide` whose arcs pass through the node at
  /// tour position `pos` (the brute-force reference's passing count).
  int passing_count(int waveguide, int pos) const {
    return passing_[waveguide][pos];
  }

  /// Signals on `waveguide` whose arcs pass through `node`, in the
  /// waveguide's signal order (same order the brute-force scan yields).
  std::vector<SignalId> signals_passing(int waveguide, NodeId node) const;

  /// Appends the signal to the waveguide (push_back + route update + index
  /// update). The (waveguide, wavelength) slot must fit the signal. Sets the
  /// route kind from the waveguide's direction.
  void place(SignalId id, int waveguide, int wavelength);

  /// Moves a placed signal onto another same-direction waveguide: erases it
  /// from its current waveguide's signal list (preserving the order of the
  /// remaining entries), appends it to the target, and updates the route —
  /// exactly the mutation sequence of the reference relocation.
  void relocate(SignalId id, int to_waveguide, int to_wavelength);

  /// Adds a fresh empty waveguide of the direction; returns its index.
  int add_waveguide(Direction dir);

  /// Search-path instrumentation, accumulated locally (the hot loops never
  /// touch the obs registry) and flushed by the phase drivers into the
  /// `mapping.fits_probes` / `mapping.fits_summary_hits` counters. The
  /// searches are serial, so the counts are a deterministic function of the
  /// input, identical at every pool size.
  struct SearchStats {
    long long fits_probes = 0;       ///< 64-slot blocks the search considered
    long long fits_summary_hits = 0; ///< of those, ruled out by the summary
  };

  /// The counts since the last call, then zeroes them: each phase flushes
  /// its own work even when phases share one index.
  SearchStats take_search_stats() {
    const SearchStats out = stats_;
    stats_ = {};
    return out;
  }

  const ArcTable& arcs() const { return *arcs_; }
  Mapping& mapping() const { return *mapping_; }
  int max_wavelengths() const { return stride_; }

 private:
  /// One direction's slot plane (see the class comment).
  struct Plane {
    std::vector<int> wgs;                ///< local rank -> global waveguide
    std::vector<std::uint64_t> free;     ///< [block][hop]
    std::vector<std::uint64_t> summary;  ///< [block / 64][hop]
  };

  /// Appends the waveguide's #wl empty slots, all hops free, to its
  /// direction's plane; waveguides are appended in index order.
  void append_slots(int waveguide);
  /// Marks the signal's arc occupied (`occupy`) or free in the slot, and
  /// updates the waveguide's passing counts.
  void mark(int waveguide, int wavelength, SignalId id, bool occupy);

  const ArcTable* arcs_;
  Mapping* mapping_;
  int stride_;  ///< the one max_wavelengths this instance serves
  std::array<Plane, 2> planes_;  ///< [kCw, kCcw]
  std::vector<int> rank_;  ///< global waveguide -> rank in its plane
  /// passing_[w][pos]: # signals on w whose arc interior covers position pos.
  std::vector<std::vector<int>> passing_;

  mutable SearchStats stats_;
};

}  // namespace xring::mapping
