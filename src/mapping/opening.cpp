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

/// Tries to move every signal of `moving` off waveguide `w` onto other
/// waveguides of direction `dir` (first fit, same probe order and predicate
/// as the brute-force reference). Commits when all of them fit; otherwise
/// rolls back, restoring the exact pre-attempt state.
bool relocate_all(OccupancyIndex& index, Direction dir, int w,
                  const std::vector<SignalId>& moving) {
  index.begin_transaction();
  for (const SignalId id : moving) {
    const OccupancyIndex::Slot slot = index.find_first_fit(dir, id, w);
    if (slot.waveguide < 0) {
      index.rollback();
      return false;
    }
    index.relocate(id, slot.waveguide, slot.wavelength);
  }
  index.commit();
  return true;
}

std::uint64_t hash_signal_set(const std::vector<SignalId>& set) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const SignalId id : set) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
    h *= 1099511628211ULL;
  }
  return h;
}

/// Failed moving-signal sets of the current waveguide's candidate loop.
/// Between rollbacks the mapping/index state is exactly the pre-attempt
/// state, so a candidate whose moving set (same signals, same order) equals
/// an already-failed attempt replays the identical relocation search and
/// provably fails again — it is skipped without evaluation. The memo is
/// scoped to one waveguide's loop: a commit changes the state and voids the
/// proof. Hashes only prefilter; equality is decided by exact compare.
class FailedSetMemo {
 public:
  bool contains(std::uint64_t hash, const std::vector<SignalId>& set) const {
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] == hash && sets_[i] == set) return true;
    }
    return false;
  }

  void add(std::uint64_t hash, std::vector<SignalId> set) {
    hashes_.push_back(hash);
    sets_.push_back(std::move(set));
  }

 private:
  std::vector<std::uint64_t> hashes_;
  std::vector<std::vector<SignalId>> sets_;
};

}  // namespace

OpeningStats create_openings(const ring::Tour& tour,
                             const netlist::Traffic& traffic, Mapping& mapping,
                             const MappingOptions& mapping_options,
                             const OpeningOptions& options,
                             const ArcTable* shared_arcs) {
  OpeningStats stats;
  if (!options.enable) return stats;

  std::optional<ArcTable> local_arcs;
  if (shared_arcs == nullptr) local_arcs.emplace(tour, traffic);
  const ArcTable& arcs = shared_arcs ? *shared_arcs : *local_arcs;
  OccupancyIndex index(arcs, mapping, mapping_options.max_wavelengths);

  long long memoized = 0;

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

    // Try candidates in order, committing the first whose passing signals
    // can all be relocated within the *existing* waveguides (moving a
    // signal "should not exceed the #wl or pass the opening node" —
    // Sec. III-C). The index's undo journal keeps failed attempts
    // side-effect free; failed moving sets are memoized (rollback restores
    // the exact pre-attempt state, so an equal set provably fails again).
    bool placed = false;
    if (!candidates.empty() && candidates.front().first == 0) {
      // Counts ascend, so a zero-count candidate is at the front — it is
      // the first candidate the reference loop accepts, with no moves.
      mapping.waveguides[w].opening = candidates.front().second;
      placed = true;
    }

    FailedSetMemo memo;
    if (!placed) {
      for (const auto& [count, node] : candidates) {
        std::vector<SignalId> moving = index.signals_passing(w, node);
        const std::uint64_t h = hash_signal_set(moving);
        if (memo.contains(h, moving)) {
          ++memoized;
          continue;
        }
        if (relocate_all(index, dir, w, moving)) {
          mapping.waveguides[w].opening = node;
          stats.relocated_signals += static_cast<int>(moving.size());
          placed = true;
          break;
        }
        memo.add(h, std::move(moving));
      }
    }

    // Last resort: the least-passed candidate, overflowing onto a fresh
    // waveguide (which then gets its own opening later in this loop).
    if (!placed) {
      const NodeId node = candidates.front().second;
      for (const SignalId id : index.signals_passing(w, node)) {
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
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    // Every ring waveguide receives exactly one opening.
    reg.counter("mapping.openings_inserted")
        .add(static_cast<long long>(mapping.waveguides.size()));
    reg.counter("mapping.relocated_signals").add(stats.relocated_signals);
    reg.counter("mapping.extra_waveguides").add(stats.extra_waveguides);
    reg.gauge("mapping.wavelengths_used").max(mapping.wavelengths_used);
    const OccupancyIndex::SearchStats& ss = index.search_stats();
    reg.counter("mapping.fits_probes").add(ss.fits_probes);
    reg.counter("mapping.fits_summary_hits").add(ss.fits_summary_hits);
    reg.counter("mapping.reloc_attempts").add(ss.reloc_attempts);
    reg.counter("mapping.candidates_memoized").add(memoized);
  }
  return stats;
}

}  // namespace xring::mapping
