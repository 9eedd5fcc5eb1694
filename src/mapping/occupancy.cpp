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

int plane_of(Direction dir) { return dir == Direction::kCw ? 0 : 1; }

/// Bits [lo, hi) of one word, 0 <= lo <= hi <= 64.
std::uint64_t bit_range(int lo, int hi) {
  if (lo >= hi) return 0;
  const std::uint64_t below_hi =
      hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
  return below_hi & ~((std::uint64_t{1} << lo) - 1);
}

/// Calls f(lo, hi) for the arc's one or two linear hop pieces, split at
/// the wrap from n-1 to 0.
template <typename F>
void for_each_piece(ArcTable::Arc a, int n, F&& f) {
  const int end = a.start + a.len;
  if (end <= n) {
    f(a.start, end);
  } else {
    f(a.start, n);
    f(0, end - n);
  }
}

/// `acc` ANDed with row[h] over the arc's two end hops: a probe that fails
/// almost always fails on an end hop.
std::uint64_t and_over_ends(const std::uint64_t* row, ArcTable::Arc a, int n,
                            std::uint64_t acc) {
  if (a.len <= 0) return acc;
  const int last = a.start + a.len - 1;
  return acc & row[a.start] & row[last < n ? last : last - n];
}

/// `acc` ANDed with row[h] over the arc's interior hops, eight contiguous
/// words at a time, stopping once the AND is zero.
std::uint64_t and_over_interior(const std::uint64_t* row, ArcTable::Arc a,
                                int n, std::uint64_t acc) {
  for_each_piece({a.start + 1, a.len - 2}, n, [&](int x, int y) {
    int h = x;
    for (; acc != 0 && h + 8 <= y; h += 8) {
      acc &= (row[h] & row[h + 1]) & (row[h + 2] & row[h + 3]) &
             (row[h + 4] & row[h + 5]) & (row[h + 6] & row[h + 7]);
    }
    for (; acc != 0 && h < y; ++h) acc &= row[h];
  });
  return acc;
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
  passing_.assign(mapping.waveguides.size(),
                  std::vector<int>(arcs.nodes(), 0));
  const int waveguides = static_cast<int>(mapping.waveguides.size());
  for (int w = 0; w < waveguides; ++w) append_slots(w);
  for (int w = 0; w < waveguides; ++w) {
    for (const SignalId id : mapping.waveguides[w].signals) {
      mark(w, mapping.routes[id].wavelength, id, true);
    }
  }
}

void OccupancyIndex::append_slots(int waveguide) {
  Plane& p = planes_[plane_of(mapping_->waveguides[waveguide].dir)];
  const std::size_t n = static_cast<std::size_t>(arcs_->nodes());
  const int lo = static_cast<int>(p.wgs.size()) * stride_;
  const int hi = lo + stride_;
  rank_.push_back(static_cast<int>(p.wgs.size()));
  p.wgs.push_back(waveguide);
  const int blocks = (hi + 63) / 64;
  p.free.resize(blocks * n, 0);
  p.summary.resize((blocks + 63) / 64 * n, 0);
  // One pass per block the new slots touch, setting all of them at once.
  for (int b = lo / 64; b < blocks; ++b) {
    const std::uint64_t bits =
        bit_range(std::max(lo - 64 * b, 0), std::min(hi - 64 * b, 64));
    const std::uint64_t sbit = std::uint64_t{1} << (b % 64);
    std::uint64_t* row = p.free.data() + b * n;
    std::uint64_t* srow = p.summary.data() + b / 64 * n;
    for (std::size_t h = 0; h < n; ++h) {
      row[h] |= bits;
      srow[h] |= sbit;
    }
  }
}

void OccupancyIndex::mark(int waveguide, int wavelength, SignalId id,
                          bool occupy) {
  const Direction dir = mapping_->waveguides[waveguide].dir;
  const ArcTable::Arc a = arcs_->arc(id, dir);
  const int n = arcs_->nodes();
  if (wavelength < stride_) {  // slots past the cap are never searched
    Plane& p = planes_[plane_of(dir)];
    const int k = rank_[waveguide] * stride_ + wavelength;
    const std::size_t b = static_cast<std::size_t>(k / 64);
    const std::uint64_t bit = std::uint64_t{1} << (k % 64);
    const std::uint64_t sbit = std::uint64_t{1} << (b % 64);
    std::uint64_t* row = p.free.data() + b * n;
    std::uint64_t* srow = p.summary.data() + b / 64 * n;
    // Placements within a slot are disjoint (every placement fit), so the
    // arc's bits are exactly the signal's own.
    for_each_piece(a, n, [&](int x, int y) {
      for (int h = x; h < y; ++h) {
        if (occupy) {
          row[h] &= ~bit;
          if (row[h] == 0) srow[h] &= ~sbit;
        } else {
          if (row[h] == 0) srow[h] |= sbit;
          row[h] |= bit;
        }
      }
    });
  }
  // The interior nodes are the arc's positions after its first hop.
  int* pass = passing_[waveguide].data();
  const int sign = occupy ? 1 : -1;
  for_each_piece({a.start + 1, a.len - 1}, n, [&](int x, int y) {
    for (int pos = x; pos < y; ++pos) pass[pos] += sign;
  });
}

OccupancyIndex::Slot OccupancyIndex::find_first_fit(Direction dir, SignalId id,
                                                    int from_waveguide,
                                                    int start) const {
  // A placed signal's own slot reads as occupied by itself, where the
  // reference predicate skips the signal; callers always exclude its
  // waveguide (or search an unplaced signal), so no probe lands there.
  assert((mapping_->routes[id].kind != RouteKind::kRingCw &&
          mapping_->routes[id].kind != RouteKind::kRingCcw) ||
         mapping_->routes[id].waveguide == from_waveguide);
  const Plane& p = planes_[plane_of(dir)];
  const int L = stride_;
  const int n = arcs_->nodes();
  const int nslots = static_cast<int>(p.wgs.size()) * L;
  const int blocks = (nslots + 63) / 64;
  const ArcTable::Arc a = arcs_->arc(id, dir);

  // The local slot of probe position `start`: the first slot of the first
  // waveguide of `dir` at or after it.
  const int sw = start / L;
  const auto it = std::lower_bound(p.wgs.begin(), p.wgs.end(), sw);
  int lo = static_cast<int>(it - p.wgs.begin()) * L;
  if (it != p.wgs.end() && *it == sw) lo += start % L;
  if (lo >= nslots) return {};

  // The waveguide of rank r cannot hold the answer: it is the excluded
  // one, or its fixed opening lies inside the arc.
  const auto excluded = [&](int r) {
    const int w = p.wgs[r];
    const NodeId opening = mapping_->waveguides[w].opening;
    return w == from_waveguide ||
           (opening != -1 &&
            arcs_->interior_contains(id, dir, arcs_->position(opening)));
  };

  for (int word = lo / 4096; word * 64 < blocks; ++word) {
    const int b_first = std::max(lo / 64, word * 64);
    const int b_end = std::min(word * 64 + 64, blocks);
    const std::uint64_t* srow =
        p.summary.data() + static_cast<std::size_t>(word) * n;
    const std::uint64_t live = and_over_interior(
        srow, a, n,
        and_over_ends(srow, a, n,
                      bit_range(b_first - word * 64, b_end - word * 64)));
    // Blocks of this word the search considers, up to the answer's block.
    const auto count = [&](int b_last) {
      const int considered = b_last - b_first + 1;
      stats_.fits_probes += considered;
      stats_.fits_summary_hits +=
          considered -
          __builtin_popcountll(live & bit_range(0, b_last - word * 64 + 1));
    };
    for (std::uint64_t s = live; s != 0; s &= s - 1) {
      const int b = word * 64 + __builtin_ctzll(s);
      const int base = b * 64;  // local slot of bit 0
      const std::uint64_t* row =
          p.free.data() + static_cast<std::size_t>(b) * n;
      std::uint64_t fit = and_over_ends(
          row, a, n,
          bit_range(b == lo / 64 ? lo % 64 : 0, std::min(nslots - base, 64)));
      // Drop the slots of excluded waveguides before the interior AND.
      for (std::uint64_t x = fit; x != 0;) {
        const int r = (base + __builtin_ctzll(x)) / L;
        const std::uint64_t own = bit_range(std::max(r * L - base, 0),
                                            std::min((r + 1) * L - base, 64));
        if (excluded(r)) fit &= ~own;
        x &= ~own;
      }
      fit = and_over_interior(row, a, n, fit);
      if (fit != 0) {
        count(b);
        const int k = base + __builtin_ctzll(fit);
        return {p.wgs[k / L], k % L};
      }
    }
    count(b_end - 1);
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
  mark(waveguide, wavelength, id, true);
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
  mark(from_waveguide, from_wavelength, id, false);
  m.waveguides[to_waveguide].signals.push_back(id);
  r.waveguide = to_waveguide;
  r.wavelength = to_wavelength;
  mark(to_waveguide, to_wavelength, id, true);
}

int OccupancyIndex::add_waveguide(Direction dir) {
  const int w = mapping_->add_waveguide(dir);
  passing_.emplace_back(arcs_->nodes(), 0);
  append_slots(w);
  return w;
}

}  // namespace xring::mapping
