#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "geom/lshape.hpp"
#include "lshape_reference.hpp"
#include "netlist/floorplan.hpp"

namespace xring::geom {
namespace {

TEST(LRoute, VerticalFirstGeometry) {
  const LRoute r({0, 0}, {4, 6}, LOrder::kVerticalFirst);
  EXPECT_EQ(r.bend(), (Point{0, 6}));
  ASSERT_EQ(r.segments().size(), 2u);
  EXPECT_EQ(r.segments()[0], (Segment{{0, 0}, {0, 6}}));
  EXPECT_EQ(r.segments()[1], (Segment{{0, 6}, {4, 6}}));
  EXPECT_EQ(r.length(), 10);
  EXPECT_FALSE(r.straight());
}

TEST(LRoute, HorizontalFirstGeometry) {
  const LRoute r({0, 0}, {4, 6}, LOrder::kHorizontalFirst);
  EXPECT_EQ(r.bend(), (Point{4, 0}));
  ASSERT_EQ(r.segments().size(), 2u);
  EXPECT_EQ(r.segments()[0], (Segment{{0, 0}, {4, 0}}));
  EXPECT_EQ(r.segments()[1], (Segment{{4, 0}, {4, 6}}));
}

TEST(LRoute, DegeneratesToStraight) {
  const LRoute r({0, 0}, {4, 0}, LOrder::kVerticalFirst);
  ASSERT_EQ(r.segments().size(), 1u);
  EXPECT_TRUE(r.straight());
  EXPECT_EQ(r.length(), 4);
  const LRoute point({2, 2}, {2, 2}, LOrder::kHorizontalFirst);
  EXPECT_TRUE(point.segments().empty());
  EXPECT_EQ(point.length(), 0);
}

TEST(LRoute, BothOptionsCoverBothOrders) {
  const auto opts = l_route_options({0, 0}, {3, 3});
  EXPECT_EQ(opts[0].order(), LOrder::kVerticalFirst);
  EXPECT_EQ(opts[1].order(), LOrder::kHorizontalFirst);
  EXPECT_EQ(opts[0].length(), opts[1].length());
}

TEST(LRouteCrossing, OppositeCornersCross) {
  // Two L-routes between opposite corners of a square: VF vs VF options
  // pass each other, but specific combinations cross.
  const LRoute a({0, 0}, {10, 10}, LOrder::kVerticalFirst);
  const LRoute b({0, 10}, {10, 0}, LOrder::kVerticalFirst);
  // a: (0,0)->(0,10)->(10,10); b: (0,10)->(0,0)->(10,0): collinear legs,
  // no transversal crossing.
  EXPECT_FALSE(routes_cross(a, b));
  const LRoute c({0, 10}, {10, 0}, LOrder::kHorizontalFirst);
  // c: (0,10)->(10,10)->(10,0): again parallel/touching, not crossing.
  EXPECT_FALSE(routes_cross(a, c));
}

TEST(LRouteCrossing, GenuineCross) {
  const LRoute a({0, 5}, {10, 5}, LOrder::kVerticalFirst);  // straight
  const LRoute b({5, 0}, {5, 10}, LOrder::kVerticalFirst);  // straight
  EXPECT_TRUE(routes_cross(a, b));
  EXPECT_EQ(crossing_count(a, b), 1);
}

TEST(LRouteCrossing, TwoCrossingsPossible) {
  // Two L-routes can cross twice: a's legs both cut through b.
  const LRoute a({0, 0}, {10, 10}, LOrder::kVerticalFirst);
  //   a: vertical x=0 from 0..10, horizontal y=10 from 0..10
  const LRoute b({-5, 5}, {5, 15}, LOrder::kHorizontalFirst);
  //   b: horizontal y=5 from -5..5, vertical x=5 from 5..15
  EXPECT_EQ(crossing_count(a, b), 2);
}

TEST(LRouteOverlap, CollinearLegsOverlap) {
  const LRoute a({0, 0}, {10, 0}, LOrder::kVerticalFirst);
  const LRoute b({5, 0}, {15, 0}, LOrder::kVerticalFirst);
  EXPECT_TRUE(routes_overlap(a, b));
  EXPECT_FALSE(routes_cross(a, b));
}

TEST(EdgesConflict, SharedEndpointNeverConflicts) {
  EXPECT_FALSE(edges_conflict({0, 0}, {10, 10}, {10, 10}, {20, 0}));
  EXPECT_FALSE(edges_conflict({0, 0}, {10, 10}, {0, 0}, {20, 0}));
}

TEST(EdgesConflict, InterleavedDiagonalsConflict) {
  // Endpoints interleave around a square so that every combination of
  // L-options crosses: the classic Fig. 6(d) situation.
  EXPECT_TRUE(edges_conflict({0, 5}, {10, 5}, {5, 0}, {5, 10}));
}

TEST(EdgesConflict, SeparatedEdgesDoNotConflict) {
  EXPECT_FALSE(edges_conflict({0, 0}, {1, 1}, {10, 10}, {11, 11}));
}

TEST(EdgesConflict, SameBoundingBoxButAvoidable) {
  // Diagonals of the same square: one can route "around" the other by
  // picking complementary L-orders (Fig. 6(c)).
  EXPECT_FALSE(edges_conflict({0, 0}, {10, 10}, {0, 10}, {10, 0}));
}

TEST(EdgesConflict, SymmetricInArguments) {
  const Point a1{0, 5}, a2{10, 5}, b1{5, 0}, b2{5, 10};
  EXPECT_EQ(edges_conflict(a1, a2, b1, b2), edges_conflict(b1, b2, a1, a2));
  EXPECT_EQ(edges_conflict(a1, a2, b1, b2), edges_conflict(a2, a1, b2, b1));
}

TEST(EdgeLegs, LegsOfBothOptions) {
  const EdgeLegs e({4, 6}, {0, 1});
  EXPECT_EQ(e.x_lo, 0);
  EXPECT_EQ(e.x_hi, 4);
  EXPECT_EQ(e.y_lo, 1);
  EXPECT_EQ(e.y_hi, 6);
  // Vertical-first: up x=4, then across y=1; horizontal-first: across y=6,
  // then up x=0 — the legs of the two LRoutes.
  for (const LRoute& r : l_route_options({4, 6}, {0, 1})) {
    const int o = r.order() == LOrder::kVerticalFirst ? 0 : 1;
    for (const Segment& s : r.segments()) {
      if (s.horizontal()) {
        EXPECT_EQ(s.a.y, e.h_y[o]);
      } else {
        EXPECT_EQ(s.a.x, e.v_x[o]);
      }
    }
  }
}

/// Every pair of distinct edges over `points`, in both orientations of the
/// second edge, against the reference. Returns the number of conflicting
/// pairs so callers can check the sample is not trivially all-false.
int expect_matches_reference(const std::vector<Point>& points) {
  std::vector<std::pair<Point, Point>> edges;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      edges.emplace_back(points[i], points[j]);
    }
  }
  int conflicts = 0;
  int mismatches = 0;
  for (std::size_t p = 0; p < edges.size(); ++p) {
    const auto [a1, a2] = edges[p];
    for (std::size_t q = p + 1; q < edges.size(); ++q) {
      for (const bool flip : {false, true}) {
        const Point b1 = flip ? edges[q].second : edges[q].first;
        const Point b2 = flip ? edges[q].first : edges[q].second;
        const bool want = reference_edges_conflict(a1, a2, b1, b2);
        conflicts += want;
        if (edges_conflict(a1, a2, b1, b2) != want && ++mismatches <= 5) {
          ADD_FAILURE() << to_string(a1) << "-" << to_string(a2) << " vs "
                        << to_string(b1) << "-" << to_string(b2)
                        << ": reference says " << want;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  return conflicts;
}

std::vector<Point> positions(const netlist::Floorplan& fp) {
  std::vector<Point> out;
  for (const netlist::Node& node : fp.nodes()) out.push_back(node.position);
  return out;
}

TEST(EdgesConflictDifferential, StandardFloorplans) {
  // The 8-node ring has no conflicting pair; the larger ones do.
  int conflicts = 0;
  for (const int n : {8, 16, 32}) {
    SCOPED_TRACE(n);
    conflicts +=
        expect_matches_reference(positions(netlist::Floorplan::standard(n)));
  }
  EXPECT_GT(conflicts, 0);
}

TEST(EdgesConflictDifferential, AxisAlignedGrid) {
  // A full grid: most node pairs share a row or column, so many edges are
  // straight, collinear, or overlap one another.
  EXPECT_GT(expect_matches_reference(positions(netlist::Floorplan::grid(4, 6, 10))),
            0);
}

TEST(EdgesConflictDifferential, JitteredGrid) {
  std::mt19937_64 rng(0x5eed);
  std::uniform_int_distribution<Coord> jitter(-300, 300);
  std::vector<Point> points;
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      points.push_back({2000 * c + jitter(rng), 2000 * r + jitter(rng)});
    }
  }
  EXPECT_GT(expect_matches_reference(points), 0);
}

TEST(EdgesConflictDifferential, HandCases) {
  // T-junctions, a node on another edge's bend, collinear overlap,
  // coincident node positions, zero-length edges and negative coordinates.
  expect_matches_reference({{0, 0},
                            {10, 0},
                            {5, 0},
                            {5, 10},
                            {5, -10},
                            {0, 10},
                            {10, 10},
                            {10, 10},
                            {-5, 5},
                            {15, 5},
                            {-10, -10},
                            {-3, 7}});
  const std::vector<std::array<Point, 4>> cases = {
      // T-junction: b ends on a's interior.
      {{{0, 0}, {10, 0}, {5, 0}, {5, 10}}},
      // b's endpoint sits on a's bend (0, 10) / (10, 0).
      {{{0, 0}, {10, 10}, {0, 10}, {-5, 20}}},
      // Collinear overlap.
      {{{0, 0}, {10, 0}, {5, 0}, {15, 0}}},
      // Coincident node positions of different edges.
      {{{0, 0}, {10, 10}, {10, 10}, {20, 0}}},
      // Zero-length edge inside the other's box.
      {{{0, 0}, {10, 10}, {5, 5}, {5, 5}}},
      // Crossing plus: the classic conflict, in negative coordinates.
      {{{-10, -5}, {0, -5}, {-5, -10}, {-5, 0}}},
  };
  for (const auto& [a1, a2, b1, b2] : cases) {
    EXPECT_EQ(edges_conflict(a1, a2, b1, b2),
              reference_edges_conflict(a1, a2, b1, b2))
        << to_string(a1) << "-" << to_string(a2) << " vs " << to_string(b1)
        << "-" << to_string(b2);
  }
  EXPECT_TRUE(edges_conflict({-10, -5}, {0, -5}, {-5, -10}, {-5, 0}));
  EXPECT_FALSE(edges_conflict({0, 0}, {10, 10}, {5, 5}, {5, 5}));
}

}  // namespace
}  // namespace xring::geom
