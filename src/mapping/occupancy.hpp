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
///   - per (waveguide, wavelength) hop bitsets plus a live set-bit count:
///     `fits` answers empty slots, resident signals and the pigeonhole
///     reject `live + len > n` without reading the bits, and otherwise
///     runs one `ArcTable::overlaps` range query over the arc's words;
///   - a per-direction segment tree over the probe-order slot sequence,
///     keyed by each slot's longest free *circular* hop run and its
///     64-bucket occupancy mask: a slot whose longest free run is shorter
///     than the arc cannot host it at any position, and one with a live bit
///     in a hop bucket the arc fully covers cannot either, so
///     `find_first_fit` jumps straight to the next slot passing both
///     filters in O(log slots) instead of probing every nearly-full slot
///     on the way (the probe-order *decision* is unchanged
///     — skipped slots all provably fail, candidates still run the exact
///     `fits` predicate). Sound only because a searched signal never probes
///     its own resident slot (`from_waveguide` is always its residence), a
///     property the search asserts: a *resident* fit needs containment, not
///     free space;
///   - per-waveguide per-tour-position passing-signal counts, making the
///     opening phase's candidate scoring an array read instead of an
///     O(signals × path) recount per node.
///
/// All mutations of the mapping's ring state must go through this class
/// while an index is live. Predicates are *bit-identical* to the brute-force
/// reference predicates in tests/mapping_reference.hpp: the index only
/// evaluates the same predicates faster, which tests/test_mapping_index.cpp
/// and tests/test_mapping_fastpath.cpp enforce differentially.
class OccupancyIndex {
 public:
  /// Builds the index over the mapping's current ring placements, serving
  /// one #wl cap: `max_wavelengths` slots per waveguide. Throws
  /// std::invalid_argument when `max_wavelengths` < 1, so every Step-3
  /// entry point rejects the cap even when nothing is ring-routed.
  OccupancyIndex(const ArcTable& arcs, Mapping& mapping, int max_wavelengths);

  /// True if the signal can join the (waveguide, wavelength) slot: its arc
  /// overlaps no other same-slot arc and does not pass the waveguide's
  /// opening (once fixed). Equals the brute-force reference predicate.
  bool fits(int waveguide, int wavelength, SignalId id) const;

  /// A found (waveguide, wavelength) slot; waveguide < 0 means none fits.
  struct Slot {
    int waveguide = -1;
    int wavelength = -1;
  };

  /// First (waveguide, wavelength) at or after probe position `start` whose
  /// slot fits the signal. Probe order is waveguide index ascending over
  /// waveguides of `dir` (skipping `from_waveguide`), wavelength
  /// 0..max_wavelengths-1 within each; slot (w, wl) sits at probe position
  /// w * max_wavelengths + wl. From 0 this is exactly the slot the
  /// brute-force first-fit loops of `place_on_ring` / the opening
  /// relocation find.
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
    long long fits_probes = 0;       ///< fits() evaluations
    long long fits_summary_hits = 0; ///< probes answered without slot bits
  };

  const SearchStats& search_stats() const { return stats_; }

  const ArcTable& arcs() const { return *arcs_; }

 private:
  /// One (waveguide, wavelength) slot: hop bitset plus its total set-bit
  /// count `live` (placements within a slot are disjoint, so it is the sum
  /// of resident arc lengths).
  struct SlotBits {
    std::vector<std::uint64_t> bits;  ///< empty = all-zero (grown lazily)
    /// Bit j set iff hop bucket j holds a live bit, where the ring's n
    /// positions split into 64 uniform buckets of ceil(n/64) hops; feeds
    /// the gap tree's occupancy filter.
    std::uint64_t buckets = 0;
    int live = 0;
  };

  /// Pruned search tree over the linear slot order k = waveguide * stride +
  /// wavelength, one per direction. Each node carries two sound reject
  /// filters over its subtree:
  ///   - `gap`: max over slots of the longest free circular hop run (n for
  ///     empty/absent slots) — a subtree with gap < len has no slot that can
  ///     host the arc at any position;
  ///   - `occ`: AND over slots of the 64-bucket occupancy masks
  ///     (`SlotBits::buckets`) — a bit set for one of the hop buckets the
  ///     arc fully covers means every slot in the subtree has a live bit
  ///     inside the arc, so all of them fail.
  /// Slots whose waveguide has the other direction (and unused capacity)
  /// carry gap -1 / occ ~0 and can never qualify (`need` is always >= 0).
  /// The search is two-level: a heap over per-waveguide aggregates prunes
  /// whole waveguides, then the survivor's per-slot filters are scanned
  /// flat. Both levels are necessary conditions, so the slots returned —
  /// and hence every probe and decision — are exactly the single-level
  /// scan's.
  struct GapTree {
    /// Both filters share a 16-byte slot so a scan step touches one cache
    /// line, not two.
    struct Node {
      int gap;            ///< longest free run (max over group; -1: never)
      std::uint64_t occ;  ///< 64-bucket occupancy mask (AND over group)
    };
    int stride_ = 1;           ///< slots per waveguide (the #wl cap)
    int size_ = 0;             ///< slots in use (waveguides * stride)
    int wcount_ = 0;           ///< waveguides covered by the heap
    int cap_ = 0;              ///< power-of-two waveguide capacity
    /// Per-slot filters, flat in probe order k — a candidate waveguide's
    /// stride_ slots sit in 4 consecutive cache lines.
    std::vector<Node> leaf_;
    /// 2*cap_ heap-ordered nodes over *waveguides* (leaf i = aggregate of
    /// slots [i*stride_, (i+1)*stride_)). 16x fewer leaves than slots keeps
    /// the whole heap cache-resident even at n=1024.
    std::vector<Node> node_;

    void set(int k, int gap, std::uint64_t occ);
    void append(int gap, std::uint64_t occ);
    /// First slot index >= from with gap >= need and (occ & full) == 0 —
    /// the slots a first-fit probe could possibly accept; -1 when none.
    int next_fit(int from, int need, std::uint64_t full) const;

   private:
    void refresh_waveguide(int w);
    /// First waveguide >= from whose aggregate passes both filters.
    int next_waveguide(int from, int need, std::uint64_t full) const;
  };

  void add_to_slots(int waveguide, int wavelength, SignalId id, int sign);
  /// Longest circular run of free hop positions in the slot (n when empty).
  int max_free_run(const SlotBits& slot) const;
  /// Appends one waveguide's stride_ empty slots to its direction's gap
  /// tree and never-qualifying ones to the other direction's.
  void append_gap_slots(Direction dir);

  const ArcTable* arcs_;
  Mapping* mapping_;
  int stride_;  ///< the one max_wavelengths this instance serves
  /// slots_[w][wl] (grown lazily; an absent slot is all-zero).
  std::vector<std::vector<SlotBits>> slots_;
  /// passing_[w][pos]: # signals on w whose arc interior covers position pos.
  std::vector<std::vector<int>> passing_;

  mutable SearchStats stats_;
  std::array<GapTree, 2> gap_;  ///< [kCw, kCcw]
};

}  // namespace xring::mapping
