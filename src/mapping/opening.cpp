#include "mapping/opening.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>

#include "mapping/occupancy.hpp"
#include "obs/obs.hpp"

namespace xring::mapping {

std::vector<std::pair<int, NodeId>> opening_candidate_order(
    const OccupancyIndex& index, const ring::Tour& tour, int w) {
  // Stable counting sort by passing count: bucket offsets from a count
  // histogram, then one ascending pass over tour positions, so equal counts
  // keep tour-position order — exactly `stable_sort` by count. O(n + max
  // count) per waveguide instead of O(n log n).
  const int n = tour.size();
  std::vector<std::pair<int, NodeId>> out;
  out.reserve(n);
  out.resize(n);
  int max_count = 0;
  for (int pos = 0; pos < n; ++pos) {
    max_count = std::max(max_count, index.passing_count(w, pos));
  }
  std::vector<int> offsets(max_count + 2, 0);
  for (int pos = 0; pos < n; ++pos) {
    ++offsets[index.passing_count(w, pos) + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  for (int pos = 0; pos < n; ++pos) {
    const int c = index.passing_count(w, pos);
    out[offsets[c]++] = {c, tour.at(pos)};
  }
  return out;
}

namespace {

std::uint64_t hash_moving_set(const std::vector<int>& set) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const int j : set) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(j));
    h *= 1099511628211ULL;
  }
  return h;
}

/// Failed moving sets of the current waveguide's candidate loop. A failed
/// attempt writes nothing, so every attempt of the loop runs against the
/// same index, and a candidate whose moving set (same signals, same order)
/// equals an already-failed one replays the identical search and provably
/// fails again — it is skipped without evaluation. The memo is scoped to one
/// waveguide's loop, which a commit ends. Hashes only prefilter; equality is
/// decided by exact compare.
class FailedSetMemo {
 public:
  bool contains(std::uint64_t hash, const std::vector<int>& set) const {
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] == hash && sets_[i] == set) return true;
    }
    return false;
  }

  void add(std::uint64_t hash, std::vector<int> set) {
    hashes_.push_back(hash);
    sets_.push_back(std::move(set));
  }

 private:
  std::vector<std::uint64_t> hashes_;
  std::vector<std::vector<int>> sets_;
};

/// True when two arcs of an n-hop ring share a hop; each covers hops
/// [start, start + len) mod n. Two such arcs meet iff one holds the other's
/// first hop.
bool arcs_overlap(ArcTable::Arc a, ArcTable::Arc b, int n) {
  if (a.len <= 0 || b.len <= 0) return false;
  const int d = b.start >= a.start ? b.start - a.start : b.start - a.start + n;
  return d < a.len || n - d < b.len;
}

/// The relocation search of one waveguide's candidate loop.
///
/// The reference tries a candidate by relocating its moving signals one by
/// one, each to the first slot in probe order that fits it once the signals
/// before it have moved. Here nothing changes the index while the loop runs:
/// an attempt writes only when every moving signal has a slot, and that
/// commit, like the last-resort path, ends the loop. Taking signals off the
/// waveguide never changes a probe, because every search skips it, and
/// placing an arc can only turn a fitting slot into a failing one. So a
/// moving signal's first fit is the first slot that fits it in the loop's
/// starting state and overlaps no arc the attempt already placed in that
/// slot. Each resident signal's fitting slots are found once, lazily, and
/// shared by every attempt that moves it.
class CandidateSearch {
 public:
  explicit CandidateSearch(OccupancyIndex& index)
      : index_(index), stride_(index.max_wavelengths()) {}

  /// Starts the loop of waveguide `w`, which holds `residents` signals.
  void reset(int w, Direction dir, std::size_t residents) {
    w_ = w;
    dir_ = dir;
    if (fits_.size() < residents) fits_.resize(residents);
    for (std::size_t j = 0; j < residents; ++j) {
      fits_[j].slots.clear();
      fits_[j].resume = 0;
    }
  }

  /// Moves the signals at positions `moving` of `resident` (the waveguide's
  /// signal list) onto their first fits, in order, when every one has a
  /// slot; otherwise writes nothing and returns false. `tried` counts the
  /// moving signals searched.
  bool try_move(const std::vector<SignalId>& resident,
                const std::vector<int>& moving, long long& tried) {
    const int n = index_.arcs().nodes();
    placed_.clear();
    for (const int j : moving) {
      ++tried;
      const SignalId id = resident[j];
      const ArcTable::Arc arc = index_.arcs().arc(id, dir_);
      const OccupancyIndex::Slot* slot = nullptr;
      for (std::size_t i = 0; (slot = nth_fit(j, id, i)) != nullptr; ++i) {
        const bool clash =
            std::any_of(placed_.begin(), placed_.end(), [&](const Placed& p) {
              return p.slot.waveguide == slot->waveguide &&
                     p.slot.wavelength == slot->wavelength &&
                     arcs_overlap(p.arc, arc, n);
            });
        if (!clash) break;
      }
      if (slot == nullptr) return false;
      placed_.push_back({id, *slot, arc});
    }
    for (const Placed& p : placed_) {
      index_.relocate(p.id, p.slot.waveguide, p.slot.wavelength);
    }
    return true;
  }

 private:
  /// Slots that fit one resident signal in the loop's starting state, in
  /// probe order. `resume` is the probe position after the last slot found,
  /// -1 once no further slot fits.
  struct FitList {
    std::vector<OccupancyIndex::Slot> slots;
    int resume = 0;
  };

  /// A slot the current attempt chose for a moving signal.
  struct Placed {
    SignalId id;
    OccupancyIndex::Slot slot;
    ArcTable::Arc arc;
  };

  /// The i-th fitting slot of resident signal `j` (id `id`), searched on
  /// first use; nullptr when fewer than i + 1 slots fit.
  const OccupancyIndex::Slot* nth_fit(int j, SignalId id, std::size_t i) {
    FitList& list = fits_[j];
    if (i == list.slots.size()) {
      if (list.resume < 0) return nullptr;
      const OccupancyIndex::Slot s =
          index_.find_first_fit(dir_, id, w_, list.resume);
      if (s.waveguide < 0) {
        list.resume = -1;
        return nullptr;
      }
      list.slots.push_back(s);
      list.resume = s.waveguide * stride_ + s.wavelength + 1;
    }
    return &list.slots[i];
  }

  OccupancyIndex& index_;
  int stride_;
  int w_ = -1;
  Direction dir_ = Direction::kCw;
  std::vector<FitList> fits_;  ///< by position in the waveguide's signals
  std::vector<Placed> placed_;
};

}  // namespace

OpeningStats create_openings(const ring::Tour& tour, OccupancyIndex& index,
                             const OpeningOptions& options) {
  OpeningStats stats;
  if (!options.enable) return stats;

  Mapping& mapping = index.mapping();
  const ArcTable& arcs = index.arcs();
  CandidateSearch search(index);

  long long memoized = 0;
  long long reloc_attempts = 0;
  std::vector<int> moving;

  // Index loop, not range-for: relocation may append waveguides, which must
  // then get their own openings too.
  for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
    // Candidate nodes ordered by how many signals pass them (the paper's
    // "nodes passed by the least number of signals"); ties broken by tour
    // position for determinism. The counts are maintained incrementally by
    // the index and bucketed by a counting sort, so ordering costs O(n).
    const std::vector<std::pair<int, NodeId>> candidates =
        opening_candidate_order(index, tour, w);
    const Direction dir = mapping.waveguides[w].dir;

    bool placed = false;
    if (!candidates.empty() && candidates.front().first == 0) {
      // Counts ascend, so a zero-count candidate is at the front — it is
      // the first candidate the reference loop accepts, with no moves.
      mapping.waveguides[w].opening = candidates.front().second;
      placed = true;
    }

    // Try candidates in order, committing the first whose passing signals
    // can all be relocated within the *existing* waveguides (moving a
    // signal "should not exceed the #wl or pass the opening node" —
    // Sec. III-C). Attempts are tried against the unchanged index (see
    // CandidateSearch), and failed moving sets are memoized.
    if (!placed) {
      const std::vector<SignalId>& resident = mapping.waveguides[w].signals;
      search.reset(w, dir, resident.size());
      FailedSetMemo memo;
      for (const auto& [count, node] : candidates) {
        const int pos = arcs.position(node);
        moving.clear();
        for (int j = 0; j < static_cast<int>(resident.size()); ++j) {
          if (arcs.interior_contains(resident[j], dir, pos)) {
            moving.push_back(j);
          }
        }
        const std::uint64_t h = hash_moving_set(moving);
        if (memo.contains(h, moving)) {
          ++memoized;
          continue;
        }
        if (search.try_move(resident, moving, reloc_attempts)) {
          mapping.waveguides[w].opening = node;
          stats.relocated_signals += static_cast<int>(moving.size());
          placed = true;
          break;
        }
        memo.add(h, moving);
      }
    }

    // Last resort: the least-passed candidate, overflowing onto a fresh
    // waveguide (which then gets its own opening later in this loop).
    if (!placed) {
      const NodeId node = candidates.front().second;
      for (const SignalId id : index.signals_passing(w, node)) {
        ++reloc_attempts;
        const OccupancyIndex::Slot slot = index.find_first_fit(dir, id, w);
        if (slot.waveguide >= 0) {
          index.relocate(id, slot.waveguide, slot.wavelength);
        } else {
          const int nw = index.add_waveguide(dir);
          index.relocate(id, nw, 0);
          ++stats.extra_waveguides;
        }
        ++stats.relocated_signals;
      }
      mapping.waveguides[w].opening = node;
    }
  }

  int max_route_wl = -1;
  for (const SignalRoute& r : mapping.routes) {
    max_route_wl = std::max(max_route_wl, r.wavelength);
  }
  mapping.wavelengths_used = max_route_wl + 1;
  const OccupancyIndex::SearchStats ss = index.take_search_stats();
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    // Every ring waveguide receives exactly one opening.
    reg.counter("mapping.openings_inserted")
        .add(static_cast<long long>(mapping.waveguides.size()));
    reg.counter("mapping.relocated_signals").add(stats.relocated_signals);
    reg.counter("mapping.extra_waveguides").add(stats.extra_waveguides);
    reg.gauge("mapping.wavelengths_used").max(mapping.wavelengths_used);
    reg.counter("mapping.fits_probes").add(ss.fits_probes);
    reg.counter("mapping.fits_summary_hits").add(ss.fits_summary_hits);
    reg.counter("mapping.reloc_attempts").add(reloc_attempts);
    reg.counter("mapping.candidates_memoized").add(memoized);
  }
  return stats;
}

OpeningStats create_openings(const ring::Tour& tour,
                             const netlist::Traffic& traffic, Mapping& mapping,
                             const MappingOptions& mapping_options,
                             const OpeningOptions& options,
                             const ArcTable* shared_arcs) {
  if (!options.enable) return {};
  std::optional<ArcTable> local_arcs;
  if (shared_arcs == nullptr) local_arcs.emplace(tour, traffic);
  OccupancyIndex index(shared_arcs ? *shared_arcs : *local_arcs, mapping,
                       mapping_options.max_wavelengths);
  return create_openings(tour, index, options);
}

}  // namespace xring::mapping
