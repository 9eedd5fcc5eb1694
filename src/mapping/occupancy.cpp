#include "mapping/occupancy.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace xring::mapping {

namespace {

/// The arc of a signal riding a waveguide of direction `dir`, as a
/// (start position, hop count) interval: the cw arc src→dst for cw travel,
/// the cw arc dst→src for ccw travel (the hops physically covered).
ArcTable::Arc arc_of(const ring::Tour& tour, const netlist::Signal& sig,
                     Direction dir) {
  const NodeId from = dir == Direction::kCw ? sig.src : sig.dst;
  const NodeId to = dir == Direction::kCw ? sig.dst : sig.src;
  return {tour.position(from), tour.hops_cw(from, to)};
}

bool is_ring_route(const SignalRoute& r) {
  return r.kind == RouteKind::kRingCw || r.kind == RouteKind::kRingCcw;
}

int lowest_set_bit(std::uint64_t x) { return __builtin_ctzll(x); }

/// Flips bits [lo, hi) of the bitset, a whole word at a time.
void flip_range(std::uint64_t* bits, int lo, int hi) {
  if (lo >= hi) return;
  const int wlo = lo >> 6;
  const int whi = (hi - 1) >> 6;
  const std::uint64_t first = ~std::uint64_t{0} << (lo & 63);
  const std::uint64_t last = (hi & 63) != 0
                                 ? (std::uint64_t{1} << (hi & 63)) - 1
                                 : ~std::uint64_t{0};
  if (wlo == whi) {
    bits[wlo] ^= first & last;
    return;
  }
  bits[wlo] ^= first;
  for (int k = wlo + 1; k < whi; ++k) bits[k] = ~bits[k];
  bits[whi] ^= last;
}

}  // namespace

ArcTable::ArcTable(const ring::Tour& tour, const netlist::Traffic& traffic)
    : nodes_(tour.size()), signal_count_(traffic.size()) {
  arcs_.resize(static_cast<std::size_t>(2) * signal_count_);
  NodeId max_id = 0;
  for (const auto& sig : traffic.signals()) {
    max_id = std::max({max_id, sig.src, sig.dst});
  }
  for (int p = 0; p < nodes_; ++p) max_id = std::max(max_id, tour.at(p));
  positions_.assign(max_id + 1, -1);
  for (int p = 0; p < nodes_; ++p) positions_[tour.at(p)] = p;
  for (const auto& sig : traffic.signals()) {
    for (const Direction dir : {Direction::kCw, Direction::kCcw}) {
      arcs_[index(sig.id, dir)] = arc_of(tour, sig, dir);
    }
  }
}

OccupancyIndex::OccupancyIndex(const ArcTable& arcs, Mapping& mapping,
                               int max_wavelengths)
    : arcs_(&arcs), mapping_(&mapping), stride_(max_wavelengths) {
  if (max_wavelengths < 1) {
    throw std::invalid_argument("max_wavelengths (#wl) must be >= 1, got " +
                                std::to_string(max_wavelengths));
  }
  slots_.resize(mapping.waveguides.size());
  passing_.assign(mapping.waveguides.size(),
                  std::vector<int>(arcs.nodes(), 0));
  for (GapTree& tree : gap_) tree.stride_ = stride_;
  for (const RingWaveguide& wg : mapping.waveguides) append_gap_slots(wg.dir);
  for (std::size_t w = 0; w < mapping.waveguides.size(); ++w) {
    for (const SignalId id : mapping.waveguides[w].signals) {
      add_to_slots(static_cast<int>(w), mapping.routes[id].wavelength, id, +1);
    }
  }
}

void OccupancyIndex::GapTree::refresh_waveguide(int w) {
  const int lo = w * stride_;
  const int hi = std::min(lo + stride_, size_);
  Node agg{-1, ~std::uint64_t{0}};
  for (int k = lo; k < hi; ++k) {
    agg.gap = std::max(agg.gap, leaf_[k].gap);
    agg.occ &= leaf_[k].occ;
  }
  int i = cap_ + w;
  node_[i] = agg;
  for (i >>= 1; i >= 1; i >>= 1) {
    const int mg = std::max(node_[2 * i].gap, node_[2 * i + 1].gap);
    const std::uint64_t mo = node_[2 * i].occ & node_[2 * i + 1].occ;
    if (node_[i].gap == mg && node_[i].occ == mo) break;  // ancestors agree
    node_[i] = {mg, mo};
  }
}

void OccupancyIndex::GapTree::set(int k, int gap, std::uint64_t occ) {
  leaf_[k] = {gap, occ};
  refresh_waveguide(k / stride_);
}

void OccupancyIndex::GapTree::append(int gap, std::uint64_t occ) {
  leaf_.push_back({gap, occ});
  const int k = size_++;
  const int w = k / stride_;
  if (w >= wcount_) {
    wcount_ = w + 1;
    if (wcount_ > cap_) {
      cap_ = cap_ == 0 ? 1 : cap_ * 2;
      node_.assign(static_cast<std::size_t>(2) * cap_,
                   Node{-1, ~std::uint64_t{0}});
      // Rebuild every aggregate under the doubled capacity. The climbs
      // overlap near the root, but growth is rare (amortized O(1)/append).
      for (int i = 0; i < wcount_ - 1; ++i) refresh_waveguide(i);
    }
  }
  refresh_waveguide(w);
}

int OccupancyIndex::GapTree::next_waveguide(int from, int need,
                                            std::uint64_t full) const {
  if (from >= wcount_) return -1;
  // Pruned DFS over the subtrees right of `from` in leaf order. qualify()
  // is a *necessary* condition for a subtree to contain an accepting slot
  // (both filters are sound rejects), so skipping a non-qualifying subtree
  // never skips the first fit; it is not sufficient, so a qualifying node
  // whose children both fail just advances right (backtracking).
  const auto qualify = [&](int i) {
    const Node& nd = node_[i];
    return nd.gap >= need && (nd.occ & full) == 0;
  };
  int i = cap_ + from;
  while (true) {
    if (qualify(i)) {
      if (i >= cap_) return i - cap_;  // unused leaves never qualify
      if (qualify(2 * i)) {
        i = 2 * i;
        continue;
      }
      if (qualify(2 * i + 1)) {
        i = 2 * i + 1;
        continue;
      }
      // Neither child qualifies: no accepting slot below — advance right.
    }
    while (i & 1) {
      i >>= 1;
      if (i <= 1) return -1;  // climbed off the right edge: nothing right
    }
    ++i;  // right sibling of the exhausted left subtree
  }
}

int OccupancyIndex::GapTree::next_fit(int from, int need,
                                      std::uint64_t full) const {
  if (from < 0) from = 0;
  if (from >= size_) return -1;
  const auto qualify = [&](int k) {
    const Node& nd = leaf_[k];
    return nd.gap >= need && (nd.occ & full) == 0;
  };
  // Finish the waveguide the search is inside, then hop waveguide-to-
  // waveguide through the heap, scanning each survivor's contiguous slots.
  int w = from / stride_;
  const int end = std::min((w + 1) * stride_, size_);
  for (int k = from; k < end; ++k) {
    if (qualify(k)) return k;
  }
  ++w;
  while (true) {
    w = next_waveguide(w, need, full);
    if (w < 0) return -1;
    const int lo = w * stride_;
    const int hi = std::min(lo + stride_, size_);
    for (int k = lo; k < hi; ++k) {
        if (qualify(k)) return k;
    }
    // Aggregate qualified but no slot did (max/AND coarsening): keep going.
    ++w;
  }
}

int OccupancyIndex::max_free_run(const SlotBits& slot) const {
  const int n = arcs_->nodes();
  if (slot.bits.empty() || slot.live == 0) return n;
  const int words = arcs_->words();
  // Walk the occupied-bit clusters in position order (each resident arc is
  // one contiguous run, so clusters ~ resident signals, not set bits),
  // tracking the zero runs between them; the run that wraps past n-1 joins
  // the leading run before the first cluster.
  int run = 0;        // current zero run
  int best = 0;
  int first_gap = -1; // zero run preceding the first set bit
  for (int k = 0; k < words; ++k) {
    const int nbits = k == words - 1 && n % 64 != 0 ? n % 64 : 64;
    const std::uint64_t w = slot.bits[k];
    int p = 0;
    while (p < nbits) {
      const std::uint64_t rest = w >> p;
      if (rest == 0) {
        run += nbits - p;
        break;
      }
      const int z = lowest_set_bit(rest);
      run += std::min(z, nbits - p);
      p += z;
      if (p >= nbits) break;
      if (first_gap < 0) first_gap = run;
      best = std::max(best, run);
      run = 0;
      const std::uint64_t inv = ~(w >> p);
      const int ones = inv == 0 ? 64 - p : lowest_set_bit(inv);
      p += std::min(ones, nbits - p);
    }
  }
  if (first_gap < 0) return n;  // no set bit inside the valid window
  return std::max(best, run + first_gap);
}

void OccupancyIndex::append_gap_slots(Direction dir) {
  const int d = dir == Direction::kCw ? 0 : 1;
  for (int wl = 0; wl < stride_; ++wl) {
    gap_[d].append(arcs_->nodes(), 0);  // empty: free run n, no live bucket
    gap_[1 - d].append(-1, ~std::uint64_t{0});
  }
}

void OccupancyIndex::add_to_slots(int waveguide, int wavelength, SignalId id,
                                  int sign) {
  const Direction dir = mapping_->waveguides[waveguide].dir;
  auto& wg_slots = slots_[waveguide];
  if (static_cast<int>(wg_slots.size()) <= wavelength) {
    wg_slots.resize(wavelength + 1);
  }
  SlotBits& slot = wg_slots[wavelength];
  if (slot.bits.empty()) slot.bits.assign(arcs_->words(), 0);
  const ArcTable::Arc a = arcs_->arc(id, dir);
  slot.live += sign * a.len;
  const int n = arcs_->nodes();
  const int B = (n + 63) / 64;
  // Placements within a slot are disjoint (every placement passed fits), so
  // flipping the arc's hop range both sets and clears exactly the signal's
  // own bits. Then refresh the 64-bucket occupancy mask for exactly the
  // buckets the arc overlaps (bucket width ceil(n/64) hops); all other
  // buckets kept their bit pattern, so their mask bits are still correct.
  const auto flip_piece = [&](int x, int y) {  // linear piece [x, y)
    flip_range(slot.bits.data(), x, y);
    for (int j = x / B; j * B < y && j < 64; ++j) {
      const int lo = j * B;
      const int hi = std::min((j + 1) * B, n);
      if (any_bit_in(slot.bits.data(), lo, hi)) {
        slot.buckets |= std::uint64_t{1} << j;
      } else {
        slot.buckets &= ~(std::uint64_t{1} << j);
      }
    }
  };
  const int end = a.start + a.len;
  if (end <= n) {
    flip_piece(a.start, end);
  } else {
    flip_piece(a.start, n);
    flip_piece(0, end - n);
  }
  if (wavelength < stride_) {
    gap_[dir == Direction::kCw ? 0 : 1].set(
        waveguide * stride_ + wavelength, max_free_run(slot), slot.buckets);
  }
  std::vector<int>& pass = passing_[waveguide];
  for (int h = 1; h < a.len; ++h) {
    pass[(a.start + h) % n] += sign;
  }
}

bool OccupancyIndex::fits(int waveguide, int wavelength, SignalId id) const {
  ++stats_.fits_probes;
  const Mapping& m = *mapping_;
  const RingWaveguide& wg = m.waveguides[waveguide];
  const Direction dir = wg.dir;

  // An already-fixed opening must not lie inside the signal's arc.
  if (wg.opening != -1 &&
      arcs_->interior_contains(id, dir, arcs_->position(wg.opening))) {
    ++stats_.fits_summary_hits;
    return false;
  }

  const auto& wg_slots = slots_[waveguide];
  if (wavelength >= static_cast<int>(wg_slots.size()) ||
      wg_slots[wavelength].live == 0) {
    ++stats_.fits_summary_hits;
    return true;  // nothing occupies this (waveguide, λ) slot
  }
  const SlotBits& slot = wg_slots[wavelength];
  const SignalRoute& r = m.routes[id];
  const ArcTable::Arc a = arcs_->arc(id, dir);
  // A signal resident in the slot overlaps only itself, which the
  // brute-force reference skips: placements within a slot are disjoint.
  if (a.len <= 0 || (is_ring_route(r) && r.waveguide == waveguide &&
                     r.wavelength == wavelength)) {
    ++stats_.fits_summary_hits;
    return true;
  }
  if (slot.live + a.len > arcs_->nodes()) {
    // Pigeonhole: the slot's free hops number fewer than the arc needs, so
    // SOME occupied hop lies inside the arc.
    ++stats_.fits_summary_hits;
    return false;
  }
  return !arcs_->overlaps(id, dir, slot.bits.data());
}

OccupancyIndex::Slot OccupancyIndex::find_first_fit(Direction dir, SignalId id,
                                                    int from_waveguide,
                                                    int start) const {
  const int L = stride_;
  const int nslots = static_cast<int>(mapping_->waveguides.size()) * L;
  // The gap-tree skip below is sound only for non-resident probes (a
  // resident fit needs containment, not a free run). Callers always pass
  // the searched signal's residence as `from_waveguide` (or search an
  // unplaced signal), so the probed slots never hold the signal itself.
  assert((!is_ring_route(mapping_->routes[id]) ||
          mapping_->routes[id].waveguide == from_waveguide) &&
         "find_first_fit must exclude the signal's resident waveguide");

  const ArcTable::Arc a = arcs_->arc(id, dir);
  const int need = a.len > 0 ? a.len : 0;  // len<=0 fits any slot
  // Hop buckets the arc covers completely: a slot (or whole subtree) whose
  // occupancy mask intersects them provably rejects. Bucket width is
  // ceil(n/64) hops — position-exact for n <= 64.
  const int n = arcs_->nodes();
  const int B = (n + 63) / 64;
  const auto bucket_range = [&](int x, int y) -> std::uint64_t {  // [x, y)
    const int j_lo = (x + B - 1) / B;
    const int j_hi = y == n ? (n - 1) / B : y / B - 1;
    if (j_lo > j_hi) return 0;  // j_hi <= 63 always; j_lo may exceed it
    const std::uint64_t hi_mask = j_hi >= 63
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << (j_hi + 1)) - 1;
    return hi_mask & ~((std::uint64_t{1} << j_lo) - 1);
  };
  std::uint64_t full = 0;
  if (a.len > 0) {
    const int end = a.start + a.len;
    full = end <= n ? bucket_range(a.start, end)
                    : (bucket_range(a.start, n) | bucket_range(0, end - n));
  }
  const GapTree& tree = gap_[dir == Direction::kCw ? 0 : 1];
  assert(tree.size_ == nslots && "gap tree out of sync with slot space");

  for (int k = start; k < nslots;) {
    // Jump to the next slot that could possibly host the arc: longest free
    // run >= len, and none of the arc's fully-covered buckets live.
    // Everything skipped provably fails `fits`, so the first accepted slot
    // is exactly the linear scan's. Other-direction waveguides carry -1/~0
    // leaves and are never returned.
    k = tree.next_fit(k, need, full);
    if (k < 0) break;
    const int w = k / L;
    const RingWaveguide& wg = mapping_->waveguides[w];
    assert(wg.dir == dir);
    if (w == from_waveguide ||
        (wg.opening != -1 &&
         arcs_->interior_contains(id, dir, arcs_->position(wg.opening)))) {
      // The excluded waveguide, or one whose fixed opening the arc passes:
      // none of its slots can be the answer.
      k = (w + 1) * L;
      continue;
    }
    const int wl = k % L;
    if (fits(w, wl, id)) return {w, wl};
    ++k;
  }
  return {};
}

std::vector<SignalId> OccupancyIndex::signals_passing(int waveguide,
                                                      NodeId node) const {
  std::vector<SignalId> out;
  const RingWaveguide& wg = mapping_->waveguides[waveguide];
  const int pos = arcs_->position(node);
  for (const SignalId id : wg.signals) {
    if (arcs_->interior_contains(id, wg.dir, pos)) out.push_back(id);
  }
  return out;
}

void OccupancyIndex::place(SignalId id, int waveguide, int wavelength) {
  Mapping& m = *mapping_;
  RingWaveguide& wg = m.waveguides[waveguide];
  SignalRoute& r = m.routes[id];
  r.kind = wg.dir == Direction::kCw ? RouteKind::kRingCw : RouteKind::kRingCcw;
  r.waveguide = waveguide;
  r.wavelength = wavelength;
  wg.signals.push_back(id);
  add_to_slots(waveguide, wavelength, id, +1);
}

void OccupancyIndex::relocate(SignalId id, int to_waveguide,
                              int to_wavelength) {
  Mapping& m = *mapping_;
  SignalRoute& r = m.routes[id];
  const int from_waveguide = r.waveguide;
  const int from_wavelength = r.wavelength;
  auto& from_signals = m.waveguides[from_waveguide].signals;
  const auto it = std::find(from_signals.begin(), from_signals.end(), id);
  if (it == from_signals.end()) {
    throw std::logic_error("relocate: signal not on its route's waveguide");
  }
  from_signals.erase(it);
  add_to_slots(from_waveguide, from_wavelength, id, -1);
  m.waveguides[to_waveguide].signals.push_back(id);
  r.waveguide = to_waveguide;
  r.wavelength = to_wavelength;
  add_to_slots(to_waveguide, to_wavelength, id, +1);
}

int OccupancyIndex::add_waveguide(Direction dir) {
  const int w = mapping_->add_waveguide(dir);
  slots_.emplace_back();
  passing_.emplace_back(arcs_->nodes(), 0);
  append_gap_slots(dir);
  return w;
}

}  // namespace xring::mapping
