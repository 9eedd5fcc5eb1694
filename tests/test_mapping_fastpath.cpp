// Differential test of the Step-3 incremental-search fast paths
// (mapping/occupancy.hpp): the indexed `fits`, the gap-tree-pruned
// `find_first_fit` from any start position (the opening search's fit lists
// resume it there), the counting-sort opening-candidate order, and the
// memoized-candidate skip of the opening search.
//
// The production paths are compared against the brute-force reference
// predicates (tests/mapping_reference.hpp). The contract is BIT-IDENTICAL
// decisions — the fast paths may only skip work with a proof, never change
// an answer — so every test asserts exact equality of predicates, probe
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

/// Two-level fits agreement over every (waveguide, wavelength) of the
/// mapping's current state: the indexed `fits` equals the brute-force
/// reference, whose O(signals × hops) cost per call limits it to every
/// `brute_stride`-th signal (1 = all).
void expect_fits_two_level(const ring::Tour& tour, const Traffic& traffic,
                           Mapping& mapping, int max_wavelengths,
                           int brute_stride = 1) {
  const ArcTable arcs(tour, traffic);
  const OccupancyIndex index(arcs, mapping, max_wavelengths);
  for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
    for (const auto& sig : traffic.signals()) {
      if (sig.id % brute_stride != 0) continue;
      for (int wl = 0; wl < max_wavelengths; ++wl) {
        ASSERT_EQ(index.fits(w, wl, sig.id),
                  reference::fits(tour, traffic, mapping, w, wl, sig.id))
            << "w=" << w << " wl=" << wl << " sig=" << sig.id;
      }
    }
  }
}

class FastpathAllToAll : public ::testing::TestWithParam<int> {};

// Index vs brute force on the mapped and the opened state. n=64 spans
// exactly one occupancy word; the smaller sizes use part of one.
TEST_P(FastpathAllToAll, FitsThreeLevelAgreement) {
  const int n = GetParam();
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  MappingOptions mo;
  mo.max_wavelengths = std::max(4, n / 2);
  const int brute_stride = n >= 64 ? 9 : 1;
  Mapping mapping =
      assign_wavelengths(inst.ring.tour, inst.traffic, inst.plan, mo);
  expect_fits_two_level(inst.ring.tour, inst.traffic, mapping,
                        mo.max_wavelengths, brute_stride);
  create_openings(inst.ring.tour, inst.traffic, mapping, mo);
  expect_fits_two_level(inst.ring.tour, inst.traffic, mapping,
                        mo.max_wavelengths, brute_stride);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FastpathAllToAll,
                         ::testing::Values(8, 16, 32, 64));

// Seeded random traffic, including a ring size that is not a multiple of 64
// (arcs wrap and end inside the partial last occupancy word).
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
      expect_fits_two_level(inst.ring.tour, inst.traffic, mapping,
                            mo.max_wavelengths);
    }
  }
}

// find_first_fit from a start position returns exactly the brute-force
// scan from that position, after a seeded series of committed relocations
// (bit removals and additions all over the slot space) and openings. The
// opening search resumes each signal's fit list from the slot after its
// last fit, so every such start is checked, plus 0 and a random one. n=32
// fits one occupancy word with one-hop buckets; n=70 and n=130 span two and
// three words with buckets two and three hops wide; at n=200 arcs cover
// whole middle words. This keeps the gap-tree skip covered on multi-word
// rings.
TEST(FastpathFirstFit, SearchFromStartMatchesBruteForceScan) {
  for (const int n : {32, 70, 130, 200}) {
    const Traffic traffic = n == 32 ? Traffic::all_to_all(n)
                                    : random_traffic(n, 10 * n, 7u);
    const Instance inst = make_instance(n, traffic, false);
    const ring::Tour& tour = inst.ring.tour;
    MappingOptions mo;
    mo.max_wavelengths = n == 32 ? n / 2 : 8;
    const int L = mo.max_wavelengths;
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
      const OccupancyIndex::Slot got =
          index.find_first_fit(dir, id, from, start);
      const OccupancyIndex::Slot want = brute_first_fit(dir, id, from, start);
      EXPECT_TRUE(got.waveguide == want.waveguide &&
                  got.wavelength == want.wavelength)
          << "n=" << n << " signal " << id << " start " << start << ": got ("
          << got.waveguide << ", " << got.wavelength << "), want ("
          << want.waveguide << ", " << want.wavelength << ")";
      return got;
    };

    std::mt19937 rng(2024);
    int resumed = 0;
    int moved = 0;
    for (int round = 0; round < 40; ++round) {
      const int w = static_cast<int>(rng() % mapping.waveguides.size());
      if (round % 10 == 9) {
        // A fixed opening: later searches skip the waveguide for every
        // signal passing it.
        mapping.waveguides[w].opening = tour.at(static_cast<int>(rng() % n));
        continue;
      }
      const Direction dir = mapping.waveguides[w].dir;
      const std::vector<SignalId> signals = mapping.waveguides[w].signals;
      for (const SignalId id : signals) {
        // The signal's whole fit list, grown as the opening search grows
        // it, then one random start.
        OccupancyIndex::Slot first;
        for (int start = 0;;) {
          const OccupancyIndex::Slot got = check(dir, id, w, start);
          if (got.waveguide < 0) break;
          if (start == 0) {
            first = got;
          } else {
            ++resumed;
          }
          start = got.waveguide * L + got.wavelength + 1;
        }
        check(dir, id, w, static_cast<int>(rng() % (nslots + 1)));
        if (first.waveguide >= 0 && rng() % 2 == 0) {
          index.relocate(id, first.waveguide, first.wavelength);
          ++moved;
        }
      }
      ASSERT_FALSE(HasFailure()) << "n=" << n << " round " << round;
    }
    ASSERT_GT(resumed, 0) << "n=" << n;
    ASSERT_GT(moved, 0) << "n=" << n;
  }
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
