// Differential test of the Step-3 incremental-search fast paths
// (mapping/occupancy.hpp): the slot-plane `find_first_fit` from any start
// position (the opening search's fit lists resume it there), at #wl caps
// that straddle its 64-slot blocks and on a direction whose summary spans
// several words, the counting-sort opening-candidate order, and the
// memoized-candidate skip of the opening search.
//
// The production paths are compared against the brute-force reference
// predicates (tests/mapping_reference.hpp). The contract is BIT-IDENTICAL
// decisions — the fast paths may only skip work with a proof, never change
// an answer — so every test asserts exact equality of fit lists, probe
// outcomes, complete mappings, and opening statistics, at 1, 2, and 8 pool
// jobs.

#include "mapping/occupancy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "mapping/opening.hpp"
#include "mapping_reference.hpp"
#include "obs/context.hpp"
#include "obs/obs.hpp"
#include "par/pool.hpp"
#include "ring/builder.hpp"
#include "shortcut/shortcut.hpp"

namespace xring::mapping {
namespace {

using netlist::NodeId;
using netlist::Traffic;

Traffic random_traffic(int nodes, int signal_count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, nodes - 1);
  std::set<std::pair<int, int>> used;
  std::vector<netlist::Signal> signals;
  while (static_cast<int>(signals.size()) < signal_count) {
    const int src = pick(rng);
    const int dst = pick(rng);
    if (src == dst || !used.insert({src, dst}).second) continue;
    netlist::Signal s;
    s.id = static_cast<int>(signals.size());
    s.src = src;
    s.dst = dst;
    signals.push_back(s);
  }
  return Traffic(std::move(signals));
}

struct Instance {
  ring::RingGeometry ring;
  Traffic traffic;
  shortcut::ShortcutPlan plan;
};

netlist::Floorplan grid_floorplan(int nodes) {
  // Squarish rows x cols factorization (standard() stops at 32 nodes).
  int rows = 1;
  for (int r = 2; r * r <= nodes; ++r) {
    if (nodes % r == 0) rows = r;
  }
  return netlist::Floorplan::grid(rows, nodes / rows, 2000);
}

Instance make_instance(int nodes, const Traffic& traffic,
                       bool with_shortcuts) {
  // Identity-order tour, realized directly: Step-3 behavior does not
  // depend on tour optimality, and skipping the Step-1 MILP keeps the
  // suite fast at n >= 64 (bench/scaling does the same for its profile).
  static std::map<int, netlist::Floorplan> fps;
  auto [it, inserted] = fps.try_emplace(nodes, grid_floorplan(nodes));
  const netlist::Floorplan& fp = it->second;
  std::vector<NodeId> order(nodes);
  std::iota(order.begin(), order.end(), 0);
  Instance inst;
  inst.ring = ring::realize(ring::Tour(std::move(order), &fp), fp);
  inst.traffic = traffic;
  if (with_shortcuts) inst.plan = shortcut::build_shortcuts(inst.ring, fp);
  return inst;
}

void expect_mappings_identical(const Mapping& a, const Mapping& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].kind, b.routes[i].kind) << "signal " << i;
    EXPECT_EQ(a.routes[i].waveguide, b.routes[i].waveguide) << "signal " << i;
    EXPECT_EQ(a.routes[i].wavelength, b.routes[i].wavelength)
        << "signal " << i;
  }
  ASSERT_EQ(a.waveguides.size(), b.waveguides.size());
  for (std::size_t w = 0; w < a.waveguides.size(); ++w) {
    EXPECT_EQ(a.waveguides[w].dir, b.waveguides[w].dir) << "waveguide " << w;
    EXPECT_EQ(a.waveguides[w].opening, b.waveguides[w].opening)
        << "waveguide " << w;
    EXPECT_EQ(a.waveguides[w].signals, b.waveguides[w].signals)
        << "waveguide " << w;
  }
  EXPECT_EQ(a.wavelengths_used, b.wavelengths_used);
}

/// Every slot find_first_fit returns for the signal, grown from probe
/// position 0 one fit at a time as the opening search grows a fit list.
std::vector<std::pair<int, int>> index_fit_list(const OccupancyIndex& index,
                                                Direction dir, SignalId id,
                                                int from_waveguide) {
  std::vector<std::pair<int, int>> out;
  for (int start = 0;;) {
    const OccupancyIndex::Slot s =
        index.find_first_fit(dir, id, from_waveguide, start);
    if (s.waveguide < 0) return out;
    out.emplace_back(s.waveguide, s.wavelength);
    const int next = s.waveguide * index.max_wavelengths() + s.wavelength + 1;
    if (next <= start) {
      ADD_FAILURE() << "signal " << id << ": a slot before start " << start;
      return out;
    }
    start = next;
  }
}

/// Fit-list agreement over the mapping's current state: for every
/// `brute_stride`-th signal (1 = all) and both directions, the whole list
/// of slots a fresh index returns equals the brute-force list, whose
/// O(signals × hops) cost per slot limits the stride.
void expect_fit_lists_agree(const ring::Tour& tour, const Traffic& traffic,
                            Mapping& mapping, int max_wavelengths,
                            int brute_stride = 1) {
  const ArcTable arcs(tour, traffic);
  const OccupancyIndex index(arcs, mapping, max_wavelengths);
  for (const auto& sig : traffic.signals()) {
    if (sig.id % brute_stride != 0) continue;
    const SignalRoute& r = mapping.routes[sig.id];
    const int from = r.kind == RouteKind::kRingCw ||
                             r.kind == RouteKind::kRingCcw
                         ? r.waveguide
                         : -1;
    for (const Direction dir : {Direction::kCw, Direction::kCcw}) {
      ASSERT_EQ(index_fit_list(index, dir, sig.id, from),
                reference::fit_list(tour, traffic, mapping, dir, sig.id, from,
                                    max_wavelengths))
          << "sig=" << sig.id;
    }
  }
}

class FastpathAllToAll : public ::testing::TestWithParam<int> {};

// Index vs brute force on the mapped and the opened state, at caps of 4 to
// 32 slots per waveguide: several waveguides share each 64-slot block.
TEST_P(FastpathAllToAll, FitsThreeLevelAgreement) {
  const int n = GetParam();
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  MappingOptions mo;
  mo.max_wavelengths = std::max(4, n / 2);
  const int brute_stride = n >= 64 ? 9 : 1;
  Mapping mapping =
      assign_wavelengths(inst.ring.tour, inst.traffic, inst.plan, mo);
  expect_fit_lists_agree(inst.ring.tour, inst.traffic, mapping,
                         mo.max_wavelengths, brute_stride);
  create_openings(inst.ring.tour, inst.traffic, mapping, mo);
  expect_fit_lists_agree(inst.ring.tour, inst.traffic, mapping,
                         mo.max_wavelengths, brute_stride);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FastpathAllToAll,
                         ::testing::Values(8, 16, 32, 64));

// Seeded random traffic with shortcuts, on rings whose arcs wrap past the
// last tour position.
TEST(FastpathRandom, FitsThreeLevelAgreementSeeded) {
  for (const int n : {16, 24, 70}) {
    for (const unsigned seed : {3u, 99u}) {
      const Traffic traffic = random_traffic(n, std::min(120, n * (n - 1)),
                                             seed);
      const Instance inst = make_instance(n, traffic, true);
      MappingOptions mo;
      mo.max_wavelengths = 6;
      Mapping mapping =
          assign_wavelengths(inst.ring.tour, inst.traffic, inst.plan, mo);
      create_openings(inst.ring.tour, inst.traffic, mapping, mo);
      expect_fit_lists_agree(inst.ring.tour, inst.traffic, mapping,
                             mo.max_wavelengths);
    }
  }
}

/// find_first_fit from a start position returns exactly the brute-force
/// scan from that position, after a seeded series of committed relocations
/// (slots freed and filled all over the plane) and openings. Each of
/// `rounds` rounds picks a random waveguide and checks up to
/// `signals_per_round` of its signals: the whole fit list from 0, grown as
/// the opening search grows it (so every resume start is checked), plus one
/// random start; then it may relocate the signal to its first fit.
void expect_search_from_start_matches(const Instance& inst, int L,
                                      int rounds, int signals_per_round) {
  const ring::Tour& tour = inst.ring.tour;
  const int n = tour.size();
  MappingOptions mo;
  mo.max_wavelengths = L;
  Mapping mapping = assign_wavelengths(tour, inst.traffic, inst.plan, mo);
  const ArcTable arcs(tour, inst.traffic);
  OccupancyIndex index(arcs, mapping, L);
  const int nslots = static_cast<int>(mapping.waveguides.size()) * L;

  const auto brute_first_fit = [&](Direction dir, SignalId id, int from,
                                   int start) {
    for (int k = start; k < nslots; ++k) {
      const int w = k / L;
      if (mapping.waveguides[w].dir != dir || w == from) continue;
      if (reference::fits(tour, inst.traffic, mapping, w, k % L, id)) {
        return OccupancyIndex::Slot{w, k % L};
      }
    }
    return OccupancyIndex::Slot{};
  };

  const auto check = [&](Direction dir, SignalId id, int from, int start) {
    const OccupancyIndex::Slot got = index.find_first_fit(dir, id, from, start);
    const OccupancyIndex::Slot want = brute_first_fit(dir, id, from, start);
    EXPECT_TRUE(got.waveguide == want.waveguide &&
                got.wavelength == want.wavelength)
        << "n=" << n << " #wl=" << L << " signal " << id << " start "
        << start << ": got (" << got.waveguide << ", " << got.wavelength
        << "), want (" << want.waveguide << ", " << want.wavelength << ")";
    return got;
  };

  std::mt19937 rng(2024);
  int resumed = 0;
  int moved = 0;
  for (int round = 0; round < rounds; ++round) {
    const int w = static_cast<int>(rng() % mapping.waveguides.size());
    if (round % 10 == 9) {
      // A fixed opening: later searches skip the waveguide for every
      // signal passing it.
      mapping.waveguides[w].opening = tour.at(static_cast<int>(rng() % n));
      continue;
    }
    const Direction dir = mapping.waveguides[w].dir;
    std::vector<SignalId> signals = mapping.waveguides[w].signals;
    if (static_cast<int>(signals.size()) > signals_per_round) {
      signals.resize(signals_per_round);
    }
    for (const SignalId id : signals) {
      OccupancyIndex::Slot first;
      for (int start = 0;;) {
        const OccupancyIndex::Slot got = check(dir, id, w, start);
        const int next = got.waveguide * L + got.wavelength + 1;
        if (got.waveguide < 0 || next <= start) break;
        if (start == 0) {
          first = got;
        } else {
          ++resumed;
        }
        start = next;
      }
      check(dir, id, w, static_cast<int>(rng() % (nslots + 1)));
      if (first.waveguide >= 0 && rng() % 2 == 0) {
        index.relocate(id, first.waveguide, first.wavelength);
        ++moved;
      }
    }
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "n=" << n << " #wl=" << L << " round " << round;
  }
  ASSERT_GT(resumed, 0) << "n=" << n << " #wl=" << L;
  ASSERT_GT(moved, 0) << "n=" << n << " #wl=" << L;
}

// n=32 all-to-all at #wl 16 (four waveguides per block); random traffic at
// #wl 8 on rings of 70, 130 and 200 hops, where arcs wrap and the longest
// cover most of the ring.
TEST(FastpathFirstFit, SearchFromStartMatchesBruteForceScan) {
  expect_search_from_start_matches(
      make_instance(32, Traffic::all_to_all(32), false), 16, 40, 1 << 30);
  for (const int n : {70, 130, 200}) {
    expect_search_from_start_matches(
        make_instance(n, random_traffic(n, 10 * n, 7u), false), 8, 40,
        1 << 30);
  }
}

// Caps whose waveguides straddle the 64-slot blocks: 3 (a waveguide across
// a block edge every 64 slots), 40 (every other waveguide), 65 and 96 (a
// waveguide's slots spill into the next block, so skipping an excluded
// waveguide crosses a block).
TEST(FastpathFirstFit, BlockStraddlingCapsMatchBruteForceScan) {
  const Instance inst = make_instance(70, random_traffic(70, 700, 11u), false);
  for (const int L : {3, 40, 65, 96}) {
    expect_search_from_start_matches(inst, L, 40, 1 << 30);
  }
}

// All-to-all n=192 at #wl 8: each direction holds over 4 096 slots, so its
// summary spans several words and fit lists and random starts cross word
// boundaries. The brute-force scan costs a pass over every slot, so each
// round samples a few signals.
TEST(FastpathFirstFit, MultiWordSummaryMatchesBruteForceScan) {
  const int n = 192;
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  MappingOptions mo;
  mo.max_wavelengths = 8;
  const Mapping mapping =
      assign_wavelengths(inst.ring.tour, inst.traffic, inst.plan, mo);
  for (const Direction dir : {Direction::kCw, Direction::kCcw}) {
    ASSERT_GT(mapping.ring_waveguides(dir) * mo.max_wavelengths, 4096);
  }
  expect_search_from_start_matches(inst, mo.max_wavelengths, 40, 3);
}

// The probe counters, recomputed from the mapping alone. A search from
// probe position `start` considers the 64-slot blocks from the one holding
// `start`'s slot through the one holding its answer (the last block when
// nothing fits), and the summary words rule out those with an arc hop that
// no slot of the block has free. Excluded waveguides (the signal's own, a
// fixed opening inside the arc) move the answer, not the definition.
// All-to-all n=32 at #wl 3 packs 21 waveguides and a partial one into each
// block, densely enough that the summary rules blocks out.
TEST(FastpathFirstFit, ProbeCountersMatchBlockScan) {
  const int n = 32;
  const int L = 3;
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  const ring::Tour& tour = inst.ring.tour;
  MappingOptions mo;
  mo.max_wavelengths = L;
  Mapping mapping = assign_wavelengths(tour, inst.traffic, inst.plan, mo);
  create_openings(tour, inst.traffic, mapping, mo);
  const ArcTable arcs(tour, inst.traffic);
  OccupancyIndex index(arcs, mapping, L);
  long long searches = 0;
  long long total_hits = 0;
  for (const Direction dir : {Direction::kCw, Direction::kCcw}) {
    // The direction's waveguides in probe order and each local slot
    // rank * L + λ's occupied hops.
    std::vector<int> wgs;
    for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
      if (mapping.waveguides[w].dir == dir) wgs.push_back(w);
    }
    const int nslots = static_cast<int>(wgs.size()) * L;
    std::vector<std::vector<bool>> busy(nslots, std::vector<bool>(n, false));
    std::vector<int> rank(mapping.waveguides.size(), -1);
    for (int r = 0; r < static_cast<int>(wgs.size()); ++r) {
      rank[wgs[r]] = r;
      for (const SignalId id : mapping.waveguides[wgs[r]].signals) {
        const auto& sig = inst.traffic.signal(id);
        for (const int h : occupied_hops(tour, sig.src, sig.dst, dir)) {
          busy[r * L + mapping.routes[id].wavelength][h] = true;
        }
      }
    }
    const auto ruled_out = [&](int b, const std::vector<int>& hops) {
      for (const int h : hops) {
        bool free = false;
        for (int k = 64 * b; k < std::min(64 * b + 64, nslots); ++k) {
          free = free || !busy[k][h];
        }
        if (!free) return true;
      }
      return false;
    };
    for (const auto& sig : inst.traffic.signals()) {
      const SignalRoute& route = mapping.routes[sig.id];
      const int from = route.kind == RouteKind::kRingCw ||
                               route.kind == RouteKind::kRingCcw
                           ? route.waveguide
                           : -1;
      const std::vector<int> hops =
          occupied_hops(tour, sig.src, sig.dst, dir);
      for (int start = 0;;) {
        index.take_search_stats();
        const OccupancyIndex::Slot got =
            index.find_first_fit(dir, sig.id, from, start);
        const OccupancyIndex::SearchStats stats = index.take_search_stats();
        const int r = static_cast<int>(
            std::lower_bound(wgs.begin(), wgs.end(), start / L) -
            wgs.begin());
        const int lo =
            r * L + (r < static_cast<int>(wgs.size()) && wgs[r] == start / L
                         ? start % L
                         : 0);
        long long probes = 0;
        long long hits = 0;
        if (lo < nslots) {
          const int last = got.waveguide < 0
                               ? (nslots - 1) / 64
                               : (rank[got.waveguide] * L + got.wavelength) / 64;
          for (int b = lo / 64; b <= last; ++b) {
            ++probes;
            hits += ruled_out(b, hops);
          }
        }
        ASSERT_EQ(stats.fits_probes, probes)
            << "signal " << sig.id << " start " << start;
        ASSERT_EQ(stats.fits_summary_hits, hits)
            << "signal " << sig.id << " start " << start;
        ++searches;
        total_hits += hits;
        const int next = got.waveguide * L + got.wavelength + 1;
        if (got.waveguide < 0 || next <= start) break;
        start = next;
      }
    }
  }
  EXPECT_GT(searches, 1000);
  EXPECT_GT(total_hits, 0);
}

// Counting-sort candidate order == the stable_sort it replaced, on every
// waveguide of mapped and opened states.
TEST(FastpathCandidateOrder, CountingSortMatchesStableSort) {
  for (const int n : {16, 32}) {
    const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
    const ring::Tour& tour = inst.ring.tour;
    MappingOptions mo;
    mo.max_wavelengths = n / 2;
    Mapping mapping = assign_wavelengths(tour, inst.traffic, inst.plan, mo);
    const ArcTable arcs(tour, inst.traffic);
    OccupancyIndex index(arcs, mapping, mo.max_wavelengths);
    for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
      std::vector<std::pair<int, NodeId>> expected;
      for (int pos = 0; pos < tour.size(); ++pos) {
        expected.emplace_back(index.passing_count(w, pos), tour.at(pos));
      }
      std::stable_sort(
          expected.begin(), expected.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      EXPECT_EQ(opening_candidate_order(index, tour, w), expected)
          << "waveguide " << w;
    }
  }
}

/// Steps 3a and 3b (assignment, then openings) on `inst` at a global pool
/// of `jobs`, recording into a fresh obs context.
struct OpeningRun {
  Mapping mapping;
  OpeningStats stats;
  std::map<std::string, long long> counters;
};

OpeningRun run_openings(const Instance& inst, const MappingOptions& mo,
                        int jobs) {
  par::set_jobs(jobs);
  obs::Context ctx;
  OpeningRun out;
  {
    obs::ScopedContext scope(ctx);
    out.mapping =
        assign_wavelengths(inst.ring.tour, inst.traffic, inst.plan, mo);
    out.stats =
        create_openings(inst.ring.tour, inst.traffic, out.mapping, mo);
  }
  out.counters = ctx.registry().counters();
  par::set_jobs(0);
  return out;
}

// The opening search must be byte-identical at every pool size. The tight
// #wl cap at n=64 forces real relocation work.
TEST(FastpathOpenings, OpeningsDeterministicAcrossJobs) {
  const int n = 64;
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  MappingOptions mo;
  mo.max_wavelengths = n / 4;  // tight: candidates fail, the memo engages

  const OpeningRun serial = run_openings(inst, mo, 1);
  for (const int jobs : {2, 8}) {
    const OpeningRun run = run_openings(inst, mo, jobs);
    EXPECT_EQ(run.stats.relocated_signals, serial.stats.relocated_signals)
        << "jobs=" << jobs;
    EXPECT_EQ(run.stats.extra_waveguides, serial.stats.extra_waveguides)
        << "jobs=" << jobs;
    expect_mappings_identical(run.mapping, serial.mapping);
  }
}

// The memoized-skip counter fires on workloads with repeated failing
// moving sets and is jobs-invariant; skipping changes no outcome (the
// mappings are compared above).
TEST(FastpathOpenings, MemoizedSkipsAreJobsInvariant) {
  const int n = 64;
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  MappingOptions mo;
  mo.max_wavelengths = n / 4;

  const long long serial =
      run_openings(inst, mo, 1).counters["mapping.candidates_memoized"];
  ASSERT_GT(serial, 0) << "workload must exercise the memoized-skip path";
  for (const int jobs : {2, 8}) {
    EXPECT_EQ(
        run_openings(inst, mo, jobs).counters["mapping.candidates_memoized"],
        serial)
        << "jobs=" << jobs;
  }
}

// The probe counters are a function of the input alone: the bench gate
// compares them exactly, at whatever pool size it runs.
TEST(FastpathOpenings, ProbeCountersAreJobsInvariant) {
  const int n = 64;
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  MappingOptions mo;
  mo.max_wavelengths = n / 4;

  const char* const keys[] = {"mapping.fits_probes",
                              "mapping.fits_summary_hits",
                              "mapping.reloc_attempts"};
  std::map<std::string, long long> serial = run_openings(inst, mo, 1).counters;
  for (const char* key : keys) ASSERT_GT(serial[key], 0) << key;
  for (const int jobs : {2, 8}) {
    std::map<std::string, long long> run =
        run_openings(inst, mo, jobs).counters;
    for (const char* key : keys) {
      EXPECT_EQ(run[key], serial[key]) << key << " at jobs=" << jobs;
    }
  }
}

// The last-resort overflow path (relocation falls back onto freshly
// appended waveguides) under the fast paths: outcome must match the
// brute-force reference exactly. The very tight cap at dense random
// traffic makes overflow unavoidable.
TEST(FastpathOverflow, ExtraWaveguidePathMatchesReference) {
  const int n = 16;
  bool saw_overflow = false;
  for (const unsigned seed : {5u, 21u, 101u, 202u}) {
    const Traffic traffic = random_traffic(n, n * (n - 1) / 2, seed);
    const Instance inst = make_instance(n, traffic, false);
    MappingOptions mo;
    mo.max_wavelengths = 2;

    Mapping fast = assign_wavelengths(inst.ring.tour, inst.traffic,
                                      inst.plan, mo);
    const OpeningStats fs =
        create_openings(inst.ring.tour, inst.traffic, fast, mo);

    // Reference: the same pipeline at 1 job; brute-force agreement of the
    // candidate search is covered exhaustively by test_mapping_index. Here
    // the pool size must not change the overflow outcome.
    par::set_jobs(1);
    Mapping serial = assign_wavelengths(inst.ring.tour, inst.traffic,
                                        inst.plan, mo);
    const OpeningStats ss =
        create_openings(inst.ring.tour, inst.traffic, serial, mo);
    par::set_jobs(0);

    EXPECT_EQ(fs.relocated_signals, ss.relocated_signals) << "seed " << seed;
    EXPECT_EQ(fs.extra_waveguides, ss.extra_waveguides) << "seed " << seed;
    expect_mappings_identical(fast, serial);
    saw_overflow = saw_overflow || fs.extra_waveguides > 0;
  }
  EXPECT_TRUE(saw_overflow)
      << "no seed produced extra_waveguides > 0; tighten the cap";
}

}  // namespace
}  // namespace xring::mapping
