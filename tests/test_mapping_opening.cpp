#include <gtest/gtest.h>

#include "mapping/opening.hpp"
#include "mapping/ornoc_assignment.hpp"
#include "mapping_reference.hpp"
#include "ring/builder.hpp"

namespace xring::mapping {
namespace {

struct Fixture {
  explicit Fixture(int n, int max_wl)
      : fp(netlist::Floorplan::standard(n)),
        traffic(netlist::Traffic::all_to_all(n)),
        ring(ring::build_ring(fp).geometry),
        plan(shortcut::build_shortcuts(ring, fp)) {
    opt.max_wavelengths = max_wl;
    mapping = assign_wavelengths(ring.tour, traffic, plan, opt);
    stats = create_openings(ring.tour, traffic, mapping, opt);
  }
  netlist::Floorplan fp;
  netlist::Traffic traffic;
  ring::RingGeometry ring;
  shortcut::ShortcutPlan plan;
  MappingOptions opt;
  Mapping mapping;
  OpeningStats stats;
};

TEST(Opening, EveryWaveguideGetsAnOpening) {
  const Fixture f(16, 16);
  for (const RingWaveguide& w : f.mapping.waveguides) {
    EXPECT_GE(w.opening, 0);
    EXPECT_LT(w.opening, 16);
  }
}

TEST(Opening, NoSignalPassesItsWaveguideOpening) {
  for (const int n : {8, 16, 32}) {
    const Fixture f(n, n);
    for (std::size_t w = 0; w < f.mapping.waveguides.size(); ++w) {
      const RingWaveguide& wg = f.mapping.waveguides[w];
      EXPECT_EQ(reference::passing_signals(f.ring.tour, f.traffic, f.mapping,
                                           static_cast<int>(w), wg.opening),
                0)
          << n << "-node network, waveguide " << w;
    }
  }
}

TEST(Opening, MappingStaysValidAfterRelocation) {
  const Fixture f(16, 16);
  // Every signal still routed; waveguide lists consistent with routes.
  for (std::size_t id = 0; id < f.mapping.routes.size(); ++id) {
    const SignalRoute& r = f.mapping.routes[id];
    EXPECT_NE(r.kind, RouteKind::kUnrouted);
    if (r.kind == RouteKind::kRingCw || r.kind == RouteKind::kRingCcw) {
      const auto& sigs = f.mapping.waveguides[r.waveguide].signals;
      EXPECT_EQ(
          std::count(sigs.begin(), sigs.end(), static_cast<SignalId>(id)), 1);
    }
  }
}

TEST(Opening, ArcDisjointnessSurvivesRelocation) {
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
          EXPECT_FALSE(hops[h]);
        }
      }
    }
  }
}

TEST(Opening, DisabledLeavesWaveguidesUnbroken) {
  const auto fp = netlist::Floorplan::standard(8);
  const auto traffic = netlist::Traffic::all_to_all(8);
  const auto ring = ring::build_ring(fp).geometry;
  MappingOptions mo;
  mo.max_wavelengths = 8;
  Mapping m = assign_wavelengths(ring.tour, traffic, {}, mo);
  OpeningOptions oo;
  oo.enable = false;
  create_openings(ring.tour, traffic, m, mo, oo);
  for (const RingWaveguide& w : m.waveguides) EXPECT_EQ(w.opening, -1);
}

TEST(Opening, PassingSignalCountMatchesManualCount) {
  const Fixture f(8, 8);
  const auto& tour = f.ring.tour;
  for (std::size_t w = 0; w < f.mapping.waveguides.size(); ++w) {
    const RingWaveguide& wg = f.mapping.waveguides[w];
    for (int pos = 0; pos < tour.size(); ++pos) {
      const netlist::NodeId v = tour.at(pos);
      int manual = 0;
      for (const SignalId id : wg.signals) {
        const auto& sig = f.traffic.signal(id);
        const auto inner =
            reference::interior_nodes(tour, sig.src, sig.dst, wg.dir);
        manual += std::count(inner.begin(), inner.end(), v) > 0 ? 1 : 0;
      }
      EXPECT_EQ(reference::passing_signals(tour, f.traffic, f.mapping,
                                           static_cast<int>(w), v),
                manual);
    }
  }
}

TEST(OrnocAssignment, RoutesEverythingWithinCap) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto traffic = netlist::Traffic::all_to_all(16);
  const auto ring = ring::build_ring(fp).geometry;
  const Mapping m = ornoc_assignment(ring.tour, traffic, 16);
  for (const SignalRoute& r : m.routes) {
    EXPECT_TRUE(r.kind == RouteKind::kRingCw || r.kind == RouteKind::kRingCcw);
    EXPECT_GE(r.wavelength, 0);
    EXPECT_LT(r.wavelength, 16);
  }
}

TEST(OrnocAssignment, PacksDenserThanFfdAtTheCostOfDetours) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto traffic = netlist::Traffic::all_to_all(16);
  const auto ring = ring::build_ring(fp).geometry;
  const Mapping ornoc = ornoc_assignment(ring.tour, traffic, 16);

  // ORNoC sends some signals the long way around: at least one route whose
  // direction is not the shorter arc.
  int long_way = 0;
  for (const auto& sig : traffic.signals()) {
    const SignalRoute& r = ornoc.routes[sig.id];
    const geom::Coord cw = ring.tour.arc_length_cw(sig.src, sig.dst);
    const geom::Coord ccw = ring.tour.arc_length_ccw(sig.src, sig.dst);
    const bool took_cw = r.kind == RouteKind::kRingCw;
    if ((took_cw && cw > ccw) || (!took_cw && ccw > cw)) ++long_way;
  }
  EXPECT_GT(long_way, 0);
}

TEST(OrnocAssignment, ArcDisjointInvariantHolds) {
  const auto fp = netlist::Floorplan::standard(8);
  const auto traffic = netlist::Traffic::all_to_all(8);
  const auto ring = ring::build_ring(fp).geometry;
  const Mapping m = ornoc_assignment(ring.tour, traffic, 8);
  for (std::size_t w = 0; w < m.waveguides.size(); ++w) {
    const RingWaveguide& wg = m.waveguides[w];
    for (std::size_t i = 0; i < wg.signals.size(); ++i) {
      for (std::size_t j = i + 1; j < wg.signals.size(); ++j) {
        const SignalId a = wg.signals[i], b = wg.signals[j];
        if (m.routes[a].wavelength != m.routes[b].wavelength) continue;
        const auto& sa = traffic.signal(a);
        const auto& sb = traffic.signal(b);
        std::vector<bool> hops(ring.tour.size(), false);
        for (const int h :
             occupied_hops(ring.tour, sa.src, sa.dst, wg.dir)) {
          hops[h] = true;
        }
        for (const int h :
             occupied_hops(ring.tour, sb.src, sb.dst, wg.dir)) {
          EXPECT_FALSE(hops[h]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace xring::mapping
