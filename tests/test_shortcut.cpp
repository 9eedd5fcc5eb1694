#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "ring/builder.hpp"
#include "shortcut/shortcut.hpp"
#include "shortcut_reference.hpp"

namespace xring::shortcut {
namespace {

ring::RingGeometry make_ring(const netlist::Floorplan& fp) {
  return ring::build_ring(fp).geometry;
}

TEST(Shortcut, BoundaryLayoutReproducesFig7CrossChords) {
  // The paper's Fig. 7 situation: on a loop layout, the two straight chords
  // between opposite mid-edge nodes (1-5 vertical, 3-7 horizontal on the
  // 3x3 boundary) each halve their ring path, cross each other at the
  // centre, and are merged into a CSE.
  const auto fp = netlist::Floorplan::ring_layout(3, 3, 1000);
  const auto ring = make_ring(fp);
  const ShortcutPlan plan = build_shortcuts(ring, fp);
  ASSERT_EQ(plan.shortcuts.size(), 2u);
  for (const Shortcut& s : plan.shortcuts) {
    EXPECT_EQ(s.length, 2000);
    EXPECT_EQ(s.gain, 2000);
    EXPECT_GE(s.crossing_partner, 0);
    ASSERT_TRUE(s.crossing.has_value());
    EXPECT_EQ(*s.crossing, (geom::Point{1000, 1000}));
  }
  // A crossing pair yields the 8 directed CSE routes of Fig. 7(b).
  EXPECT_EQ(plan.cse_routes.size(), 8u);
}

TEST(Shortcut, SerpentineGridGetsShortcuts) {
  // The paper's Fig. 2 situation: a serpentine over a 4x4 grid leaves
  // physically adjacent row-end nodes far apart along the ring.
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = make_ring(fp);
  const ShortcutPlan plan = build_shortcuts(ring, fp);
  EXPECT_FALSE(plan.shortcuts.empty());
  for (const Shortcut& s : plan.shortcuts) {
    EXPECT_GT(s.gain, 0);
    EXPECT_EQ(s.length, fp.distance(s.a, s.b));
    // Gain definition: min ring arc minus chord length (Sec. III-B).
    const geom::Coord ring_len = std::min(ring.tour.arc_length_cw(s.a, s.b),
                                          ring.tour.arc_length_ccw(s.a, s.b));
    EXPECT_EQ(s.gain, ring_len - s.length);
  }
}

TEST(Shortcut, AtMostOneShortcutPerNode) {
  for (const int n : {16, 32}) {
    const auto fp = netlist::Floorplan::standard(n);
    const ShortcutPlan plan = build_shortcuts(make_ring(fp), fp);
    std::vector<int> uses(n, 0);
    for (const Shortcut& s : plan.shortcuts) {
      uses[s.a]++;
      uses[s.b]++;
    }
    for (const int u : uses) EXPECT_LE(u, 1);
  }
}

TEST(Shortcut, DisabledOptionReturnsEmptyPlan) {
  const auto fp = netlist::Floorplan::standard(16);
  ShortcutOptions opt;
  opt.enable = false;
  const ShortcutPlan plan = build_shortcuts(make_ring(fp), fp, opt);
  EXPECT_TRUE(plan.shortcuts.empty());
  EXPECT_TRUE(plan.cse_routes.empty());
}

TEST(Shortcut, ChordsDoNotCrossTheRing) {
  const auto fp = netlist::Floorplan::standard(32);
  const auto ring = make_ring(fp);
  const ShortcutPlan plan = build_shortcuts(ring, fp);
  for (const Shortcut& s : plan.shortcuts) {
    const geom::LRoute chord(fp.position(s.a), fp.position(s.b), s.order);
    EXPECT_EQ(ring.polyline.crossings_with(chord), 0)
        << "shortcut " << s.a << "-" << s.b;
  }
}

TEST(Shortcut, FindIsDirectionInsensitive) {
  const auto fp = netlist::Floorplan::standard(16);
  const ShortcutPlan plan = build_shortcuts(make_ring(fp), fp);
  ASSERT_FALSE(plan.shortcuts.empty());
  const Shortcut& s = plan.shortcuts.front();
  EXPECT_EQ(plan.find(s.a, s.b), 0);
  EXPECT_EQ(plan.find(s.b, s.a), 0);
  EXPECT_EQ(plan.find(s.a, s.a), -1);
}

TEST(Shortcut, FeasibleChordHonoursCrossings) {
  // Hand-built square ring 0-1-2-3; the diagonal chord cannot avoid the
  // ring on a plain square... it actually can: it stays inside. Verify the
  // helper agrees with a direct geometric check.
  const auto fp = netlist::Floorplan::grid(2, 2, 1000);
  const auto ring = make_ring(fp);
  for (netlist::NodeId a = 0; a < 4; ++a) {
    for (netlist::NodeId b = a + 1; b < 4; ++b) {
      const auto order = reference_feasible_chord(ring, fp, a, b);
      if (order) {
        const geom::LRoute chord(fp.position(a), fp.position(b), *order);
        EXPECT_EQ(ring.polyline.crossings_with(chord), 0);
      }
    }
  }
}

/// A layout engineered to make two selected shortcuts cross: a long thin
/// "ladder" whose rungs are far apart along the ring but close in space.
class CrossingShortcuts : public ::testing::Test {
 protected:
  CrossingShortcuts() {
    // Two columns of nodes; the ring snakes so that column-mates are far
    // apart along it, and the two best chords cross each other.
    std::vector<netlist::Node> nodes;
    const geom::Point pts[] = {
        {0, 0},     {2000, 0},     {4000, 0},     {6000, 0},
        {6000, 9000}, {4000, 9000}, {2000, 9000}, {0, 9000},
    };
    for (const auto& p : pts) nodes.push_back({0, p, ""});
    fp_ = std::make_unique<netlist::Floorplan>(std::move(nodes), 8000, 10000);
  }
  std::unique_ptr<netlist::Floorplan> fp_;
};

TEST_F(CrossingShortcuts, CrossedPairBecomesCse) {
  const auto ring = make_ring(*fp_);
  const ShortcutPlan plan = build_shortcuts(ring, *fp_);
  int crossed = 0;
  for (std::size_t i = 0; i < plan.shortcuts.size(); ++i) {
    const Shortcut& s = plan.shortcuts[i];
    if (s.crossing_partner >= 0) {
      ++crossed;
      // Partner links must be mutual and carry the same crossing point.
      const Shortcut& p = plan.shortcuts[s.crossing_partner];
      EXPECT_EQ(p.crossing_partner, static_cast<int>(i));
      ASSERT_TRUE(s.crossing.has_value());
      ASSERT_TRUE(p.crossing.has_value());
      EXPECT_EQ(*s.crossing, *p.crossing);
    }
  }
  if (crossed > 0) {
    EXPECT_EQ(crossed % 2, 0);  // crossings come in pairs
    EXPECT_FALSE(plan.cse_routes.empty());
    for (const CseRoute& r : plan.cse_routes) {
      EXPECT_NE(r.src, r.dst);
      EXPECT_NE(r.shortcut_in, r.shortcut_out);
      EXPECT_GT(r.length, 0);
    }
  }
}

TEST(Shortcut, CseRouteLengthsAreTriangleConsistent) {
  // Whatever CSE routes exist, src->X->dst can never beat the Manhattan
  // distance and never exceed the sum of both chords.
  const auto fp = netlist::Floorplan::standard(32);
  const auto ring = make_ring(fp);
  const ShortcutPlan plan = build_shortcuts(ring, fp);
  for (const CseRoute& r : plan.cse_routes) {
    EXPECT_GE(r.length, fp.distance(r.src, r.dst));
    EXPECT_LE(r.length, plan.shortcuts[r.shortcut_in].length +
                            plan.shortcuts[r.shortcut_out].length);
  }
}

/// Asserts that the ray-blocker scan returns the reference scan's candidate
/// list entry for entry: same pairs, lengths, gains, orders and order.
/// Returns the candidate count.
std::size_t expect_candidates_match(const ring::RingGeometry& ring,
                                    const netlist::Floorplan& fp,
                                    const std::string& label) {
  const std::vector<ChordCandidate> got = collect_candidates(ring, fp);
  const std::vector<ChordCandidate> want =
      reference_collect_candidates(ring, fp);
  EXPECT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const ChordCandidate& g = got[i];
    const ChordCandidate& w = want[i];
    EXPECT_TRUE(g.a == w.a && g.b == w.b && g.length == w.length &&
                g.gain == w.gain && g.feasible_orders == w.feasible_orders)
        << label << ": candidate " << i << " is " << g.a << "-" << g.b
        << ", reference " << w.a << "-" << w.b;
    if (::testing::Test::HasFailure()) break;
  }
  return want.size();
}

/// A rows x cols grid at 2 mm pitch, every node moved by up to ±300 µm.
netlist::Floorplan jittered_grid(int rows, int cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<geom::Coord> jitter(-300, 300);
  std::vector<netlist::Node> nodes;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      netlist::Node node;
      node.id = r * cols + c;
      node.position = {2000 + 2000 * c + jitter(rng),
                       2000 + 2000 * r + jitter(rng)};
      nodes.push_back(node);
    }
  }
  return netlist::Floorplan(std::move(nodes), (cols + 2) * 2000,
                            (rows + 2) * 2000);
}

TEST(CollectCandidates, SortedByGainAndAllPositive) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto candidates = collect_candidates(make_ring(fp), fp);
  EXPECT_FALSE(candidates.empty());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_GT(candidates[i].gain, 0);
    EXPECT_FALSE(candidates[i].feasible_orders.empty());
    if (i > 0) {
      EXPECT_GE(candidates[i - 1].gain, candidates[i].gain);
    }
  }
}

TEST(CollectCandidates, MatchesReferenceOnPaperLayouts) {
  for (const int n : {8, 16, 32}) {
    const auto fp = netlist::Floorplan::standard(n);
    EXPECT_GT(expect_candidates_match(make_ring(fp), fp,
                                      "standard(" + std::to_string(n) + ")"),
              0u);
  }
  const auto loop = netlist::Floorplan::ring_layout(3, 3, 1000);
  EXPECT_GT(expect_candidates_match(make_ring(loop), loop, "ring_layout(3,3)"),
            0u);
}

TEST(CollectCandidates, MatchesReferenceOnJitteredGrids) {
  for (const auto& [rows, cols] : {std::pair{8, 8}, std::pair{8, 12}}) {
    const auto fp = jittered_grid(rows, cols, 100 * rows + cols);
    expect_candidates_match(
        make_ring(fp), fp,
        "jittered " + std::to_string(rows) + "x" + std::to_string(cols));
  }
}

TEST(CollectCandidates, MatchesReferenceOnRandomCrossingTours) {
  // Shuffled tours over coarse grids: many collinear nodes, rings that
  // cross themselves, legs that end exactly on ring segments (T-junctions)
  // and ring segments through other nodes.
  std::mt19937 rng(2023);
  std::size_t candidates = 0;
  int crossing_rings = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const int side = std::uniform_int_distribution<int>(2, 8)(rng);
    std::vector<geom::Point> cells;
    for (int x = 0; x < side; ++x) {
      for (int y = 0; y < side; ++y) cells.push_back({1000 * x, 1000 * y});
    }
    std::shuffle(cells.begin(), cells.end(), rng);
    const int n = std::uniform_int_distribution<int>(
        std::min(4, side * side), std::min<int>(63, cells.size()))(rng);
    if (n < 3) continue;
    std::vector<netlist::Node> nodes;
    for (int i = 0; i < n; ++i) nodes.push_back({i, cells[i], ""});
    const netlist::Floorplan fp(std::move(nodes), 1000 * side, 1000 * side);
    std::vector<netlist::NodeId> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    const ring::RingGeometry ring =
        ring::realize(ring::Tour(std::move(order), &fp), fp);
    crossing_rings += ring.crossings > 0;
    candidates += expect_candidates_match(
        ring, fp, "trial " + std::to_string(trial) + " (n=" +
                      std::to_string(n) + ")");
    if (HasFailure()) break;
  }
  EXPECT_GT(candidates, 0u);
  EXPECT_GT(crossing_rings, 100);
}

TEST(CollectCandidates, MatchesReferenceOnSerpentine512) {
  // The 16x32 boustrophedon ring of the n=512 scaling row.
  constexpr int kRows = 16, kCols = 32;
  const auto fp = netlist::Floorplan::grid(kRows, kCols, 2000);
  std::vector<netlist::NodeId> order;
  for (int r = 0; r < kRows; ++r) {
    for (int c = 1; c < kCols; ++c) {
      order.push_back(r * kCols + (r % 2 == 0 ? c : kCols - c));
    }
  }
  for (int r = kRows - 1; r >= 0; --r) order.push_back(r * kCols);
  const ring::RingGeometry ring =
      ring::realize(ring::Tour(std::move(order), &fp), fp);
  ASSERT_EQ(ring.crossings, 0);
  EXPECT_GT(expect_candidates_match(ring, fp, "serpentine 16x32"), 100000u);
}

TEST(Tour, ArcLengthMatchesHopSum) {
  std::mt19937 rng(5);
  for (const int n : {3, 7, 64, 131}) {
    std::vector<netlist::Node> nodes;
    std::uniform_int_distribution<geom::Coord> coord(0, 50000);
    for (int i = 0; i < n; ++i) nodes.push_back({i, {coord(rng), coord(rng)}, ""});
    const netlist::Floorplan fp(std::move(nodes), 50000, 50000);
    std::vector<netlist::NodeId> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    const ring::Tour tour(std::move(order), &fp);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        ASSERT_EQ(tour.arc_length_cw(a, b),
                  reference_arc_length_cw(tour, a, b))
            << "n=" << n << " " << a << "->" << b;
      }
    }
  }
}

}  // namespace
}  // namespace xring::shortcut
