// Differential test of the incremental arc-occupancy index
// (mapping/occupancy.hpp) against the brute-force reference predicates and
// against verbatim re-implementations of the pre-index Step-3 algorithms.
//
// The index's contract is BIT-IDENTICAL behavior: same probe order, same
// first-fit choices, same tie-breaks, same openings, same relocation and
// overflow decisions — it only evaluates the same predicates faster. Every
// test here therefore asserts exact equality of complete mappings, not just
// metric-level agreement. Coverage includes all-to-all n ∈ {8, 16, 32},
// seeded randomized traffic patterns, the opening search on multi-word rings
// (shuffled tours at n = 70 and 130), post-relocation states (a fresh index
// over the opening phase's output still agrees with brute force), and the
// ORNoC baseline's two-direction first fit at tight #wl caps.

#include "mapping/occupancy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "mapping/opening.hpp"
#include "mapping/ornoc_assignment.hpp"
#include "mapping_reference.hpp"
#include "ring/builder.hpp"
#include "shortcut/shortcut.hpp"

namespace xring::mapping {
namespace {

using netlist::NodeId;
using netlist::Traffic;

// --------------------------------------------------------------------------
// Reference implementations: the exact pre-index Step-3 hot loops (deep-copy
// transactions, per-probe occupied_hops/interior_nodes derivation), built on
// the brute-force predicates of tests/mapping_reference.hpp.

std::pair<int, int> ref_place_on_ring(const ring::Tour& tour,
                                      const Traffic& traffic, Mapping& m,
                                      Direction dir, SignalId id,
                                      int max_wavelengths) {
  for (int w = 0; w < static_cast<int>(m.waveguides.size()); ++w) {
    if (m.waveguides[w].dir != dir) continue;
    for (int wl = 0; wl < max_wavelengths; ++wl) {
      if (reference::fits(tour, traffic, m, w, wl, id)) return {w, wl};
    }
  }
  return {m.add_waveguide(dir), 0};
}

Mapping ref_assign_wavelengths(const ring::Tour& tour, const Traffic& traffic,
                               const shortcut::ShortcutPlan& shortcuts,
                               const MappingOptions& options) {
  Mapping m;
  m.routes.assign(traffic.size(), SignalRoute{});

  for (const auto& sig : traffic.signals()) {
    const int sc = shortcuts.shortcuts.empty()
                       ? -1
                       : shortcuts.find(sig.src, sig.dst);
    if (sc < 0) continue;
    SignalRoute& r = m.routes[sig.id];
    r.kind = RouteKind::kShortcut;
    r.shortcut = sc;
    const shortcut::Shortcut& s = shortcuts.shortcuts[sc];
    if (s.crossing_partner < 0) {
      r.wavelength = 0;
    } else {
      r.wavelength = sc < s.crossing_partner ? 0 : 1;
    }
  }
  for (std::size_t c = 0; c < shortcuts.cse_routes.size(); ++c) {
    const shortcut::CseRoute& route = shortcuts.cse_routes[c];
    // The pre-index linear rescan: first traffic signal with the pair.
    for (const auto& sig : traffic.signals()) {
      if (sig.src != route.src || sig.dst != route.dst) continue;
      SignalRoute& r = m.routes[sig.id];
      if (r.kind == RouteKind::kShortcut) break;
      const geom::Coord ring_len =
          std::min(tour.arc_length_cw(sig.src, sig.dst),
                   tour.arc_length_ccw(sig.src, sig.dst));
      const bool better_than_current =
          r.kind != RouteKind::kCse ||
          route.length < shortcuts.cse_routes[r.cse].length;
      if (route.length < ring_len && better_than_current) {
        r.kind = RouteKind::kCse;
        r.cse = static_cast<int>(c);
        r.wavelength = route.shortcut_in < route.shortcut_out ? 2 : 3;
      }
      break;
    }
  }

  std::vector<SignalId> ring_signals;
  for (const auto& sig : traffic.signals()) {
    if (m.routes[sig.id].kind == RouteKind::kUnrouted) {
      ring_signals.push_back(sig.id);
    }
  }
  auto shorter_arc = [&](SignalId id) {
    const auto& sig = traffic.signal(id);
    return std::min(tour.arc_length_cw(sig.src, sig.dst),
                    tour.arc_length_ccw(sig.src, sig.dst));
  };
  std::stable_sort(ring_signals.begin(), ring_signals.end(),
                   [&](SignalId x, SignalId y) {
                     return shorter_arc(x) > shorter_arc(y);
                   });

  for (const SignalId id : ring_signals) {
    const auto& sig = traffic.signal(id);
    const geom::Coord cw = tour.arc_length_cw(sig.src, sig.dst);
    const geom::Coord ccw = tour.arc_length_ccw(sig.src, sig.dst);
    const Direction dir = cw <= ccw ? Direction::kCw : Direction::kCcw;
    const auto [w, wl] =
        ref_place_on_ring(tour, traffic, m, dir, id, options.max_wavelengths);
    SignalRoute& r = m.routes[id];
    r.kind = dir == Direction::kCw ? RouteKind::kRingCw : RouteKind::kRingCcw;
    r.waveguide = w;
    r.wavelength = wl;
    m.waveguides[w].signals.push_back(id);
  }

  int max_wl = -1;
  for (const SignalRoute& r : m.routes) max_wl = std::max(max_wl, r.wavelength);
  m.wavelengths_used = max_wl + 1;
  return m;
}

std::pair<bool, bool> ref_relocate(const ring::Tour& tour,
                                   const Traffic& traffic, Mapping& mapping,
                                   int from, SignalId id, int max_wavelengths,
                                   bool allow_new) {
  const Direction dir = mapping.waveguides[from].dir;
  for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
    if (w == from || mapping.waveguides[w].dir != dir) continue;
    for (int wl = 0; wl < max_wavelengths; ++wl) {
      if (!reference::fits(tour, traffic, mapping, w, wl, id)) continue;
      auto& sigs = mapping.waveguides[from].signals;
      sigs.erase(std::remove(sigs.begin(), sigs.end(), id), sigs.end());
      mapping.waveguides[w].signals.push_back(id);
      mapping.routes[id].waveguide = w;
      mapping.routes[id].wavelength = wl;
      return {true, false};
    }
  }
  if (!allow_new) return {false, false};
  const int w = mapping.add_waveguide(dir);
  auto& sigs = mapping.waveguides[from].signals;
  sigs.erase(std::remove(sigs.begin(), sigs.end(), id), sigs.end());
  mapping.waveguides[w].signals.push_back(id);
  mapping.routes[id].waveguide = w;
  mapping.routes[id].wavelength = 0;
  return {true, true};
}

std::vector<SignalId> ref_signals_passing(const ring::Tour& tour,
                                          const Traffic& traffic,
                                          const Mapping& mapping, int w,
                                          NodeId node) {
  std::vector<SignalId> out;
  const Direction dir = mapping.waveguides[w].dir;
  for (const SignalId id : mapping.waveguides[w].signals) {
    const auto& sig = traffic.signal(id);
    const auto interior =
        reference::interior_nodes(tour, sig.src, sig.dst, dir);
    if (std::find(interior.begin(), interior.end(), node) != interior.end()) {
      out.push_back(id);
    }
  }
  return out;
}

OpeningStats ref_create_openings(const ring::Tour& tour,
                                 const Traffic& traffic, Mapping& mapping,
                                 const MappingOptions& mapping_options) {
  OpeningStats stats;
  for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
    std::vector<std::pair<int, NodeId>> candidates;
    for (int pos = 0; pos < tour.size(); ++pos) {
      const NodeId v = tour.at(pos);
      candidates.emplace_back(
          reference::passing_signals(tour, traffic, mapping, w, v), v);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    bool placed = false;
    for (const auto& [count, node] : candidates) {
      if (count == 0) {
        mapping.waveguides[w].opening = node;
        placed = true;
        break;
      }
      Mapping trial = mapping;  // the pre-index deep-copy transaction
      bool ok = true;
      int moved_here = 0;
      for (const SignalId id :
           ref_signals_passing(tour, traffic, mapping, w, node)) {
        const auto [moved, added] =
            ref_relocate(tour, traffic, trial, w, id,
                         mapping_options.max_wavelengths, /*allow_new=*/false);
        (void)added;
        if (!moved) {
          ok = false;
          break;
        }
        ++moved_here;
      }
      if (ok) {
        mapping = std::move(trial);
        mapping.waveguides[w].opening = node;
        stats.relocated_signals += moved_here;
        placed = true;
        break;
      }
    }

    if (!placed) {
      const NodeId node = candidates.front().second;
      for (const SignalId id :
           ref_signals_passing(tour, traffic, mapping, w, node)) {
        const auto [moved, added] =
            ref_relocate(tour, traffic, mapping, w, id,
                         mapping_options.max_wavelengths, /*allow_new=*/true);
        stats.relocated_signals += moved ? 1 : 0;
        stats.extra_waveguides += added ? 1 : 0;
      }
      mapping.waveguides[w].opening = node;
    }
  }

  int max_wl = -1;
  for (const SignalRoute& r : mapping.routes) {
    max_wl = std::max(max_wl, r.wavelength);
  }
  mapping.wavelengths_used = max_wl + 1;
  return stats;
}

/// The pre-index ORNoC first fit, verbatim: shorter direction first, then
/// the longer one, waveguides ascending, λ ascending, brute-force `fits`.
Mapping ref_ornoc_assignment(const ring::Tour& tour, const Traffic& traffic,
                             int max_wavelengths) {
  Mapping m;
  m.routes.assign(traffic.size(), SignalRoute{});

  for (const auto& sig : traffic.signals()) {
    const geom::Coord cw = tour.arc_length_cw(sig.src, sig.dst);
    const geom::Coord ccw = tour.arc_length_ccw(sig.src, sig.dst);
    const Direction shorter = cw <= ccw ? Direction::kCw : Direction::kCcw;
    const Direction longer =
        shorter == Direction::kCw ? Direction::kCcw : Direction::kCw;

    int chosen_w = -1, chosen_wl = -1;
    Direction chosen_dir = shorter;
    for (const Direction dir : {shorter, longer}) {
      for (int w = 0; w < static_cast<int>(m.waveguides.size()) && chosen_w < 0;
           ++w) {
        if (m.waveguides[w].dir != dir) continue;
        for (int wl = 0; wl < max_wavelengths; ++wl) {
          if (reference::fits(tour, traffic, m, w, wl, sig.id)) {
            chosen_w = w;
            chosen_wl = wl;
            chosen_dir = dir;
            break;
          }
        }
      }
      if (chosen_w >= 0) break;
    }
    if (chosen_w < 0) {
      chosen_w = m.add_waveguide(shorter);
      chosen_wl = 0;
      chosen_dir = shorter;
    }

    SignalRoute& r = m.routes[sig.id];
    r.kind = chosen_dir == Direction::kCw ? RouteKind::kRingCw
                                          : RouteKind::kRingCcw;
    r.waveguide = chosen_w;
    r.wavelength = chosen_wl;
    m.waveguides[chosen_w].signals.push_back(sig.id);
  }

  int max_wl = -1;
  for (const SignalRoute& r : m.routes) max_wl = std::max(max_wl, r.wavelength);
  m.wavelengths_used = max_wl + 1;
  return m;
}

/// Signals an ORNoC mapping routes the long way around the ring.
int longer_direction_signals(const ring::Tour& tour, const Traffic& traffic,
                             const Mapping& m) {
  int count = 0;
  for (const auto& sig : traffic.signals()) {
    const bool shorter_cw = tour.arc_length_cw(sig.src, sig.dst) <=
                            tour.arc_length_ccw(sig.src, sig.dst);
    const bool cw = m.routes[sig.id].kind == RouteKind::kRingCw;
    if (cw != shorter_cw) ++count;
  }
  return count;
}

// --------------------------------------------------------------------------

void expect_mappings_identical(const Mapping& a, const Mapping& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].kind, b.routes[i].kind) << "signal " << i;
    EXPECT_EQ(a.routes[i].waveguide, b.routes[i].waveguide) << "signal " << i;
    EXPECT_EQ(a.routes[i].wavelength, b.routes[i].wavelength) << "signal " << i;
    EXPECT_EQ(a.routes[i].shortcut, b.routes[i].shortcut) << "signal " << i;
    EXPECT_EQ(a.routes[i].cse, b.routes[i].cse) << "signal " << i;
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
  EXPECT_EQ(a.ring_waveguides(Direction::kCw), b.ring_waveguides(Direction::kCw));
  EXPECT_EQ(a.ring_waveguides(Direction::kCcw),
            b.ring_waveguides(Direction::kCcw));
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

/// Asserts a freshly built index over `mapping` agrees with the brute-force
/// predicates on every (waveguide, node) and on every signal's whole fit
/// list in both directions (off its own waveguide, which a search of a
/// placed signal always excludes).
void expect_index_agrees(const ring::Tour& tour, const Traffic& traffic,
                         Mapping& mapping, int max_wavelengths) {
  const ArcTable arcs(tour, traffic);
  const OccupancyIndex index(arcs, mapping, max_wavelengths);
  for (int w = 0; w < static_cast<int>(mapping.waveguides.size()); ++w) {
    for (int pos = 0; pos < tour.size(); ++pos) {
      const NodeId v = tour.at(pos);
      EXPECT_EQ(index.passing_count(w, pos),
                reference::passing_signals(tour, traffic, mapping, w, v))
          << "w=" << w << " pos=" << pos;
      EXPECT_EQ(index.signals_passing(w, v),
                ref_signals_passing(tour, traffic, mapping, w, v))
          << "w=" << w << " pos=" << pos;
    }
  }
  for (const auto& sig : traffic.signals()) {
    const SignalRoute& r = mapping.routes[sig.id];
    const int from = r.kind == RouteKind::kRingCw ||
                             r.kind == RouteKind::kRingCcw
                         ? r.waveguide
                         : -1;
    for (const Direction dir : {Direction::kCw, Direction::kCcw}) {
      EXPECT_EQ(index_fit_list(index, dir, sig.id, from),
                reference::fit_list(tour, traffic, mapping, dir, sig.id, from,
                                    max_wavelengths))
          << "signal=" << sig.id;
    }
  }
}

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

Instance make_instance(int nodes, const Traffic& traffic,
                       bool with_shortcuts) {
  const auto fp = netlist::Floorplan::standard(nodes);
  Instance inst;
  inst.ring = ring::build_ring(fp).geometry;
  inst.traffic = traffic;
  if (with_shortcuts) inst.plan = shortcut::build_shortcuts(inst.ring, fp);
  return inst;
}

class MappingIndexAllToAll : public ::testing::TestWithParam<int> {};

TEST_P(MappingIndexAllToAll, ArcTableMatchesHopDerivation) {
  const int n = GetParam();
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  const ring::Tour& tour = inst.ring.tour;
  const ArcTable arcs(tour, inst.traffic);
  for (const auto& sig : inst.traffic.signals()) {
    for (const Direction dir : {Direction::kCw, Direction::kCcw}) {
      const auto hops = occupied_hops(tour, sig.src, sig.dst, dir);
      const std::set<int> hop_set(hops.begin(), hops.end());
      std::vector<std::uint64_t> probe(arcs.words(), 0);
      for (int h = 0; h < tour.size(); ++h) {
        probe[h >> 6] = std::uint64_t{1} << (h & 63);
        EXPECT_EQ(arcs.overlaps(sig.id, dir, probe.data()),
                  hop_set.count(h) > 0)
            << "signal " << sig.id << " hop " << h;
        probe[h >> 6] = 0;
      }
      const auto interior =
          reference::interior_nodes(tour, sig.src, sig.dst, dir);
      const std::set<NodeId> interior_set(interior.begin(), interior.end());
      for (int pos = 0; pos < tour.size(); ++pos) {
        EXPECT_EQ(arcs.interior_contains(sig.id, dir, pos),
                  interior_set.count(tour.at(pos)) > 0)
            << "signal " << sig.id << " pos " << pos;
      }
    }
  }
}

TEST(ArcTableFill, OverlapsMatchPerHopFill) {
  // Rings of several 64-bit words whose size is not a multiple of 64, so
  // arcs start, end and wrap inside partial first, middle and last words.
  std::mt19937 rng(64);
  for (const int n : {130, 200}) {
    const auto fp = netlist::Floorplan::grid(10, n / 10, 1000);
    std::vector<NodeId> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    const ring::Tour tour(std::move(order), &fp);
    const Traffic traffic = Traffic::all_to_all(n);
    const ArcTable arcs(tour, traffic);
    const int words = (n + 63) / 64;
    ASSERT_EQ(arcs.words(), words);
    std::vector<std::uint64_t> probe(words, 0);
    for (const auto& sig : traffic.signals()) {
      for (const Direction dir : {Direction::kCw, Direction::kCcw}) {
        // The arc as first derived: one hop at a time, modulo n.
        const NodeId from = dir == Direction::kCw ? sig.src : sig.dst;
        const NodeId to = dir == Direction::kCw ? sig.dst : sig.src;
        const int start = tour.position(from), len = tour.hops_cw(from, to);
        ASSERT_EQ(arcs.arc(sig.id, dir).start, start);
        ASSERT_EQ(arcs.arc(sig.id, dir).len, len);
        std::vector<bool> covered(n, false);
        for (int h = 0; h < len; ++h) covered[(start + h) % n] = true;
        // A one-bit probe at every hop: overlaps() sees exactly the arc.
        for (int h = 0; h < n; ++h) {
          probe[h >> 6] = std::uint64_t{1} << (h & 63);
          ASSERT_EQ(arcs.overlaps(sig.id, dir, probe.data()), covered[h])
              << "n=" << n << " signal " << sig.id << " hop " << h;
          probe[h >> 6] = 0;
        }
      }
    }
  }
}

TEST_P(MappingIndexAllToAll, AssignAndOpeningsMatchReference) {
  const int n = GetParam();
  for (const bool with_shortcuts : {false, true}) {
    const Instance inst =
        make_instance(n, Traffic::all_to_all(n), with_shortcuts);
    MappingOptions mo;
    mo.max_wavelengths = n / 2;  // tight cap: exercises overflow + conflicts

    Mapping indexed = assign_wavelengths(inst.ring.tour, inst.traffic,
                                         inst.plan, mo);
    Mapping reference =
        ref_assign_wavelengths(inst.ring.tour, inst.traffic, inst.plan, mo);
    expect_mappings_identical(indexed, reference);
    expect_index_agrees(inst.ring.tour, inst.traffic, indexed,
                        mo.max_wavelengths);

    const OpeningStats is =
        create_openings(inst.ring.tour, inst.traffic, indexed, mo);
    const OpeningStats rs =
        ref_create_openings(inst.ring.tour, inst.traffic, reference, mo);
    EXPECT_EQ(is.relocated_signals, rs.relocated_signals);
    EXPECT_EQ(is.extra_waveguides, rs.extra_waveguides);
    expect_mappings_identical(indexed, reference);
    // Post-relocation state: a fresh index over the opening phase's output
    // still agrees with brute force everywhere.
    expect_index_agrees(inst.ring.tour, inst.traffic, indexed,
                        mo.max_wavelengths);
  }
}

TEST_P(MappingIndexAllToAll, OrnocMatchesReference) {
  const int n = GetParam();
  const Instance inst = make_instance(n, Traffic::all_to_all(n), false);
  const ring::Tour& tour = inst.ring.tour;
  // Tight caps fill the shorter direction's slots, so signals fall back to
  // the longer direction and then overflow into new waveguides.
  int longer = 0;
  for (const int cap : {n / 4, n / 2}) {
    const Mapping indexed = ornoc_assignment(tour, inst.traffic, cap);
    const Mapping reference = ref_ornoc_assignment(tour, inst.traffic, cap);
    expect_mappings_identical(indexed, reference);
    EXPECT_GT(indexed.ring_waveguides(Direction::kCw), 1) << "cap " << cap;
    EXPECT_GT(indexed.ring_waveguides(Direction::kCcw), 1) << "cap " << cap;
    longer += longer_direction_signals(tour, inst.traffic, indexed);
  }
  EXPECT_GT(longer, 0) << "the longer-direction fallback never engaged";
}

INSTANTIATE_TEST_SUITE_P(Sizes, MappingIndexAllToAll,
                         ::testing::Values(8, 16, 32));

TEST(MappingIndexRandom, AssignAndOpeningsMatchReferenceSeeded) {
  const int n = 16;
  for (const unsigned seed : {1u, 7u, 42u, 1337u}) {
    const Traffic traffic = random_traffic(n, 80, seed);
    const Instance inst = make_instance(n, traffic, true);
    MappingOptions mo;
    mo.max_wavelengths = 4;  // very tight: forces relocation overflow paths
    Mapping indexed =
        assign_wavelengths(inst.ring.tour, inst.traffic, inst.plan, mo);
    Mapping reference =
        ref_assign_wavelengths(inst.ring.tour, inst.traffic, inst.plan, mo);
    expect_mappings_identical(indexed, reference);

    const OpeningStats is =
        create_openings(inst.ring.tour, inst.traffic, indexed, mo);
    const OpeningStats rs =
        ref_create_openings(inst.ring.tour, inst.traffic, reference, mo);
    EXPECT_EQ(is.relocated_signals, rs.relocated_signals) << "seed " << seed;
    EXPECT_EQ(is.extra_waveguides, rs.extra_waveguides) << "seed " << seed;
    expect_mappings_identical(indexed, reference);
    expect_index_agrees(inst.ring.tour, inst.traffic, indexed,
                        mo.max_wavelengths);
  }
}

TEST(MappingIndexRandom, OrnocMatchesReferenceSeeded) {
  const int n = 16;
  for (const unsigned seed : {1u, 7u, 42u, 1337u}) {
    const Traffic traffic = random_traffic(n, 80, seed);
    const Instance inst = make_instance(n, traffic, false);
    for (const int cap : {n / 4, n / 2}) {
      const Mapping indexed = ornoc_assignment(inst.ring.tour, traffic, cap);
      const Mapping reference =
          ref_ornoc_assignment(inst.ring.tour, traffic, cap);
      expect_mappings_identical(indexed, reference);
    }
  }
}

// The opening search against brute force on multi-word rings. Shuffled
// tours at n=70 and n=130 span two and three occupancy words; the tight #wl
// cap over 10·n random signals makes candidate attempts pick slots that
// clash with arcs placed earlier in the same attempt (also arcs that wrap
// past position n-1), commit after such clashes, and overflow onto fresh
// waveguides.
TEST(MappingIndexMultiWord, OpeningsMatchReferenceOnShuffledTours) {
  int relocated = 0;
  int extra = 0;
  for (const int n : {70, 130}) {
    const auto fp = netlist::Floorplan::grid(10, n / 10, 1000);
    for (const unsigned seed : {11u, 23u}) {
      std::mt19937 rng(seed);
      std::vector<NodeId> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng);
      const ring::Tour tour(std::move(order), &fp);
      const Traffic traffic = random_traffic(n, 10 * n, seed);
      const shortcut::ShortcutPlan no_shortcuts;
      MappingOptions mo;
      mo.max_wavelengths = 8;

      Mapping indexed = assign_wavelengths(tour, traffic, no_shortcuts, mo);
      Mapping reference =
          ref_assign_wavelengths(tour, traffic, no_shortcuts, mo);
      expect_mappings_identical(indexed, reference);

      const OpeningStats is = create_openings(tour, traffic, indexed, mo);
      const OpeningStats rs =
          ref_create_openings(tour, traffic, reference, mo);
      EXPECT_EQ(is.relocated_signals, rs.relocated_signals)
          << "n=" << n << " seed " << seed;
      EXPECT_EQ(is.extra_waveguides, rs.extra_waveguides)
          << "n=" << n << " seed " << seed;
      expect_mappings_identical(indexed, reference);
      relocated += is.relocated_signals;
      extra += is.extra_waveguides;
    }
  }
  EXPECT_GT(relocated, 0);
  EXPECT_GT(extra, 0);
}

TEST(MappingIndexShared, SharedArcTableIsBitIdentical) {
  const int n = 16;
  const Instance inst = make_instance(n, Traffic::all_to_all(n), true);
  const ArcTable shared(inst.ring.tour, inst.traffic);
  MappingOptions mo;
  mo.max_wavelengths = 10;

  Mapping with_shared = assign_wavelengths(inst.ring.tour, inst.traffic,
                                           inst.plan, mo, &shared);
  Mapping without = assign_wavelengths(inst.ring.tour, inst.traffic,
                                       inst.plan, mo, nullptr);
  expect_mappings_identical(with_shared, without);

  create_openings(inst.ring.tour, inst.traffic, with_shared, mo, {}, &shared);
  create_openings(inst.ring.tour, inst.traffic, without, mo, {}, nullptr);
  expect_mappings_identical(with_shared, without);
}

}  // namespace
}  // namespace xring::mapping
