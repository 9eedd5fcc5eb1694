#include "mapping/opening.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>

#include "mapping/occupancy.hpp"
#include "obs/obs.hpp"
#include "par/pool.hpp"

namespace xring::mapping {

int passing_signals(const ring::Tour& tour, const netlist::Traffic& traffic,
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

/// Outcome of one candidate's relocation attempt, evaluated either inline
/// on the live index or speculatively on a snapshot. `moves` records the
/// found slot per moving signal in relocation order; `stats` is the probe
/// delta the attempt cost (booked only when the attempt is consumed).
struct AttemptResult {
  bool ok = false;
  std::vector<std::pair<SignalId, OccupancyIndex::Slot>> moves;
  OccupancyIndex::SearchStats stats;
};

/// Tries to move every signal of `moving` off waveguide `w` onto other
/// same-direction waveguides (first-fit, same probe order and predicate as
/// the brute-force reference). On success commits unless `rollback_after`
/// (speculation always rolls back so one snapshot serves a whole chunk of
/// candidates); on failure always rolls back, restoring the exact
/// pre-attempt state.
AttemptResult evaluate_candidate(const Mapping& mapping, OccupancyIndex& index,
                                 int w, const std::vector<SignalId>& moving,
                                 int max_wavelengths, bool rollback_after) {
  AttemptResult res;
  const OccupancyIndex::SearchStats before = index.search_stats();
  const Direction dir = mapping.waveguides[w].dir;
  index.begin_transaction();
  res.ok = true;
  res.moves.reserve(moving.size());
  for (const SignalId id : moving) {
    const OccupancyIndex::Slot slot =
        index.find_first_fit(dir, id, w, max_wavelengths);
    if (slot.waveguide < 0) {
      res.ok = false;
      break;
    }
    index.relocate(id, slot.waveguide, slot.wavelength);
    res.moves.emplace_back(id, slot);
  }
  if (res.ok && !rollback_after) {
    index.commit();
  } else {
    index.rollback();
  }
  const OccupancyIndex::SearchStats after = index.search_stats();
  res.stats = {after.fits_probes - before.fits_probes,
               after.fits_summary_hits - before.fits_summary_hits,
               after.reloc_attempts - before.reloc_attempts};
  return res;
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
  OccupancyIndex index(arcs, mapping);

  long long memoized = 0;
  const int max_wl = mapping_options.max_wavelengths;
  // Speculation pays for a Mapping + index snapshot per chunk; on small
  // instances the serial loop wins outright and the outcome is identical
  // either way, so gate on pool width and ring size.
  const bool speculate =
      options.speculate && par::effective_jobs() > 1 && tour.size() >= 64;
  // Candidates are tried in ascending-passing-count order, so the serial
  // loop usually succeeds within the first few; a batch speculates just
  // far enough ahead to keep the pool busy without wasting evaluations.
  const int jobs = speculate ? par::effective_jobs() : 1;
  const int chunk_size = 2;
  const std::size_t batch_size = static_cast<std::size_t>(jobs) * chunk_size;

  // Index loop, not range-for: relocation may append waveguides, which must
  // then get their own openings too.
  for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
    // Candidate nodes ordered by how many signals pass them (the paper's
    // "nodes passed by the least number of signals"); ties broken by tour
    // position for determinism. The counts are maintained incrementally by
    // the index and bucketed by a counting sort, so ordering costs O(n).
    const std::vector<std::pair<int, NodeId>> candidates =
        opening_candidate_order(index, tour, w);

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
    if (!placed && !speculate) {
      for (const auto& [count, node] : candidates) {
        const std::vector<SignalId> moving = index.signals_passing(w, node);
        const std::uint64_t h = hash_signal_set(moving);
        if (memo.contains(h, moving)) {
          ++memoized;
          continue;
        }
        const AttemptResult res = evaluate_candidate(
            mapping, index, w, moving, max_wl, /*rollback_after=*/false);
        if (res.ok) {
          mapping.waveguides[w].opening = node;
          stats.relocated_signals += static_cast<int>(res.moves.size());
          placed = true;
          break;
        }
        memo.add(h, moving);
      }
    }

    std::size_t next = 0;
    while (speculate && !placed && next < candidates.size()) {
      // One batch: evaluate the next `batch_size` candidates in parallel,
      // each chunk of candidates against its own snapshot of the live
      // state. No candidate commits between snapshot and consume, so every
      // snapshot sees exactly the state a serial attempt would — outcomes
      // and relocation targets are the serial ones, and consuming them in
      // candidate order keeps the result byte-identical at any thread
      // count. Probe counters are booked only for consumed attempts
      // (discarded speculation leaves no counter trace); they still differ
      // from a serial run's via cursor warm-up, which is why the probe
      // counters are classified solver-internal, never quality-gated.
      const std::size_t batch_end =
          std::min(candidates.size(), next + batch_size);
      const std::size_t count = batch_end - next;
      std::vector<std::vector<SignalId>> moving(count);
      for (std::size_t i = 0; i < count; ++i) {
        moving[i] = index.signals_passing(w, candidates[next + i].second);
      }
      std::vector<AttemptResult> results(count);
      {
        par::TaskGroup group(par::global_pool());
        for (std::size_t chunk = 0; chunk < count;
             chunk += static_cast<std::size_t>(chunk_size)) {
          const std::size_t chunk_end =
              std::min(count, chunk + static_cast<std::size_t>(chunk_size));
          group.run([&, chunk, chunk_end] {
            Mapping snap_mapping = mapping;
            OccupancyIndex snap(index, snap_mapping);
            for (std::size_t i = chunk; i < chunk_end; ++i) {
              results[i] = evaluate_candidate(snap_mapping, snap, w,
                                              moving[i], max_wl,
                                              /*rollback_after=*/true);
            }
          });
        }
        group.wait();
      }
      for (std::size_t i = 0; i < count && !placed; ++i) {
        const std::uint64_t h = hash_signal_set(moving[i]);
        if (memo.contains(h, moving[i])) {
          ++memoized;
          continue;
        }
        index.book_stats(results[i].stats);
        if (!results[i].ok) {
          memo.add(h, std::move(moving[i]));
          continue;
        }
        // Serial-order first success: the recorded targets were found
        // against exactly the live state, so they are applied directly.
        for (const auto& [id, slot] : results[i].moves) {
          index.relocate(id, slot.waveguide, slot.wavelength);
        }
        mapping.waveguides[w].opening = candidates[next + i].second;
        stats.relocated_signals +=
            static_cast<int>(results[i].moves.size());
        placed = true;
      }
      next = batch_end;
    }

    // Last resort: the least-passed candidate, overflowing onto a fresh
    // waveguide (which then gets its own opening later in this loop).
    if (!placed) {
      const NodeId node = candidates.front().second;
      const Direction dir = mapping.waveguides[w].dir;
      for (const SignalId id : index.signals_passing(w, node)) {
        const OccupancyIndex::Slot slot =
            index.find_first_fit(dir, id, w, max_wl);
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
