#include <gtest/gtest.h>

#include <stdexcept>

#include "mapping/opening.hpp"
#include "mapping/ornoc_assignment.hpp"
#include "mapping/wavelength.hpp"
#include "mapping_reference.hpp"
#include "ring/builder.hpp"

namespace xring::mapping {
namespace {

struct Fixture {
  explicit Fixture(int n, int max_wl, bool shortcuts = true)
      : fp(netlist::Floorplan::standard(n)),
        traffic(netlist::Traffic::all_to_all(n)),
        ring(ring::build_ring(fp).geometry),
        plan(shortcuts ? shortcut::build_shortcuts(ring, fp)
                       : shortcut::ShortcutPlan{}) {
    MappingOptions opt;
    opt.max_wavelengths = max_wl;
    mapping = assign_wavelengths(ring.tour, traffic, plan, opt);
  }
  netlist::Floorplan fp;
  netlist::Traffic traffic;
  ring::RingGeometry ring;
  shortcut::ShortcutPlan plan;
  Mapping mapping;
};

TEST(OccupiedHops, CwAndCcwCoverComplementaryArcs) {
  const auto fp = netlist::Floorplan::standard(8);
  const ring::Tour tour(ring::build_ring(fp).geometry.tour);
  for (netlist::NodeId a = 0; a < 8; ++a) {
    for (netlist::NodeId b = 0; b < 8; ++b) {
      if (a == b) continue;
      const auto cw = occupied_hops(tour, a, b, Direction::kCw);
      const auto ccw = occupied_hops(tour, a, b, Direction::kCcw);
      EXPECT_EQ(cw.size() + ccw.size(), 8u);  // together: the whole ring
      std::vector<bool> seen(8, false);
      for (const int h : cw) seen[h] = true;
      for (const int h : ccw) EXPECT_FALSE(seen[h]);
    }
  }
}

TEST(InteriorNodes, ExcludesEndpoints) {
  const auto fp = netlist::Floorplan::standard(8);
  const ring::Tour tour(ring::build_ring(fp).geometry.tour);
  for (netlist::NodeId a = 0; a < 8; ++a) {
    for (netlist::NodeId b = 0; b < 8; ++b) {
      if (a == b) continue;
      for (const Direction dir : {Direction::kCw, Direction::kCcw}) {
        const auto inner = reference::interior_nodes(tour, a, b, dir);
        for (const netlist::NodeId v : inner) {
          EXPECT_NE(v, a);
          EXPECT_NE(v, b);
        }
      }
    }
  }
}

// The cap is rejected even when no signal reaches a first-fit search: with
// empty traffic, or with every signal on a shortcut.
TEST(Assignment, RejectsNonPositiveWavelengthCap) {
  const auto fp = netlist::Floorplan::standard(8);
  const ring::Tour tour(ring::build_ring(fp).geometry.tour);
  const netlist::Traffic all = netlist::Traffic::all_to_all(8);
  const netlist::Traffic none;
  netlist::Signal sig;
  sig.id = 0;
  sig.src = tour.at(0);
  sig.dst = tour.at(4);
  const netlist::Traffic one(std::vector<netlist::Signal>{sig});
  shortcut::ShortcutPlan plan;
  plan.shortcuts.push_back({});
  plan.shortcuts[0].a = sig.src;
  plan.shortcuts[0].b = sig.dst;
  for (const int cap : {0, -1}) {
    MappingOptions opt;
    opt.max_wavelengths = cap;
    for (const netlist::Traffic* traffic : {&all, &none}) {
      EXPECT_THROW(assign_wavelengths(tour, *traffic, {}, opt),
                   std::invalid_argument)
          << "cap " << cap << ", " << traffic->size() << " signals";
      EXPECT_THROW(ornoc_assignment(tour, *traffic, cap),
                   std::invalid_argument)
          << "cap " << cap << ", " << traffic->size() << " signals";
    }
    Mapping unmapped;
    EXPECT_THROW(create_openings(tour, none, unmapped, opt),
                 std::invalid_argument)
        << "cap " << cap;
    EXPECT_THROW(assign_wavelengths(tour, one, plan, opt),
                 std::invalid_argument)
        << "cap " << cap;
  }
}

TEST(Assignment, EverySignalRouted) {
  const Fixture f(16, 16);
  for (const SignalRoute& r : f.mapping.routes) {
    EXPECT_NE(r.kind, RouteKind::kUnrouted);
    EXPECT_GE(r.wavelength, 0);
  }
}

TEST(Assignment, WavelengthCapRespected) {
  for (const int cap : {4, 8, 16}) {
    const Fixture f(16, cap);
    for (const SignalRoute& r : f.mapping.routes) {
      if (r.kind == RouteKind::kRingCw || r.kind == RouteKind::kRingCcw) {
        EXPECT_LT(r.wavelength, cap);
      }
    }
  }
}

TEST(Assignment, TighterCapNeedsMoreWaveguides) {
  const Fixture tight(16, 4);
  const Fixture loose(16, 16);
  EXPECT_GT(tight.mapping.waveguides.size(), loose.mapping.waveguides.size());
}

TEST(Assignment, ArcDisjointnessOnSharedWavelength) {
  const Fixture f(16, 16);
  const auto& tour = f.ring.tour;
  for (std::size_t w = 0; w < f.mapping.waveguides.size(); ++w) {
    const RingWaveguide& wg = f.mapping.waveguides[w];
    for (std::size_t i = 0; i < wg.signals.size(); ++i) {
      for (std::size_t j = i + 1; j < wg.signals.size(); ++j) {
        const SignalId a = wg.signals[i], b = wg.signals[j];
        if (f.mapping.routes[a].wavelength != f.mapping.routes[b].wavelength) {
          continue;
        }
        const auto& sa = f.traffic.signal(a);
        const auto& sb = f.traffic.signal(b);
        std::vector<bool> hops(tour.size(), false);
        for (const int h : occupied_hops(tour, sa.src, sa.dst, wg.dir)) {
          hops[h] = true;
        }
        for (const int h : occupied_hops(tour, sb.src, sb.dst, wg.dir)) {
          EXPECT_FALSE(hops[h]) << "overlap on waveguide " << w;
        }
      }
    }
  }
}

TEST(Assignment, RingSignalsTakeShorterDirection) {
  const Fixture f(16, 16);
  const auto& tour = f.ring.tour;
  for (const auto& sig : f.traffic.signals()) {
    const SignalRoute& r = f.mapping.routes[sig.id];
    if (r.kind != RouteKind::kRingCw && r.kind != RouteKind::kRingCcw) continue;
    const geom::Coord cw = tour.arc_length_cw(sig.src, sig.dst);
    const geom::Coord ccw = tour.arc_length_ccw(sig.src, sig.dst);
    if (r.kind == RouteKind::kRingCw) {
      EXPECT_LE(cw, ccw);
    } else {
      EXPECT_LE(ccw, cw);
    }
  }
}

TEST(Assignment, WaveguideSignalListsMatchRoutes) {
  const Fixture f(16, 16);
  for (std::size_t w = 0; w < f.mapping.waveguides.size(); ++w) {
    for (const SignalId id : f.mapping.waveguides[w].signals) {
      EXPECT_EQ(f.mapping.routes[id].waveguide, static_cast<int>(w));
    }
  }
  // And every ring route appears in its waveguide's list exactly once.
  for (std::size_t id = 0; id < f.mapping.routes.size(); ++id) {
    const SignalRoute& r = f.mapping.routes[id];
    if (r.kind != RouteKind::kRingCw && r.kind != RouteKind::kRingCcw) continue;
    const auto& sigs = f.mapping.waveguides[r.waveguide].signals;
    EXPECT_EQ(std::count(sigs.begin(), sigs.end(), static_cast<SignalId>(id)),
              1);
  }
}

TEST(Assignment, ShortcutSignalsUseTheirShortcut) {
  const Fixture f(16, 16);
  for (const auto& sig : f.traffic.signals()) {
    const int sc = f.plan.find(sig.src, sig.dst);
    if (sc < 0) continue;
    const SignalRoute& r = f.mapping.routes[sig.id];
    EXPECT_EQ(r.kind, RouteKind::kShortcut);
    EXPECT_EQ(r.shortcut, sc);
  }
}

TEST(Assignment, ShortcutWavelengthDiscipline) {
  const Fixture f(16, 16);
  for (const auto& sig : f.traffic.signals()) {
    const SignalRoute& r = f.mapping.routes[sig.id];
    if (r.kind == RouteKind::kShortcut) {
      const auto& s = f.plan.shortcuts[r.shortcut];
      if (s.crossing_partner < 0) {
        EXPECT_EQ(r.wavelength, 0);
      } else {
        // Crossed pair: λ0 and λ1, lower index first.
        EXPECT_EQ(r.wavelength, r.shortcut < s.crossing_partner ? 0 : 1);
      }
    }
    if (r.kind == RouteKind::kCse) {
      EXPECT_GE(r.wavelength, 2);  // distinct from both crossed shortcuts
    }
  }
}

TEST(Assignment, NoShortcutsModeMapsEverythingOnRings) {
  const Fixture f(16, 16, /*shortcuts=*/false);
  for (const SignalRoute& r : f.mapping.routes) {
    EXPECT_TRUE(r.kind == RouteKind::kRingCw || r.kind == RouteKind::kRingCcw);
  }
}

TEST(Assignment, WavelengthsUsedIsMaxPlusOne) {
  const Fixture f(8, 8);
  int max_wl = -1;
  for (const SignalRoute& r : f.mapping.routes) {
    max_wl = std::max(max_wl, r.wavelength);
  }
  EXPECT_EQ(f.mapping.wavelengths_used, max_wl + 1);
}

/// Parameterized invariant sweep across sizes and caps.
class AssignmentSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AssignmentSweep, CompleteAndConsistent) {
  const auto [n, cap] = GetParam();
  const Fixture f(n, cap);
  EXPECT_EQ(static_cast<int>(f.mapping.routes.size()), n * (n - 1));
  for (const SignalRoute& r : f.mapping.routes) {
    EXPECT_NE(r.kind, RouteKind::kUnrouted);
  }
  EXPECT_LE(f.mapping.wavelengths_used, std::max(cap, 3));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCaps, AssignmentSweep,
    ::testing::Values(std::make_pair(8, 4), std::make_pair(8, 8),
                      std::make_pair(16, 8), std::make_pair(16, 16),
                      std::make_pair(32, 16), std::make_pair(32, 32)));

}  // namespace
}  // namespace xring::mapping
