#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "netlist/io.hpp"
#include "netlist/traffic.hpp"

namespace xring::netlist {
namespace {

TEST(FloorplanIo, RoundTrip) {
  for (const int n : {8, 16, 32}) {
    const Floorplan original = Floorplan::standard(n);
    std::stringstream buf;
    write_floorplan(original, buf);
    const Floorplan loaded = read_floorplan(buf);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.die_width(), original.die_width());
    EXPECT_EQ(loaded.die_height(), original.die_height());
    for (NodeId v = 0; v < original.size(); ++v) {
      EXPECT_EQ(loaded.position(v), original.position(v)) << n;
      EXPECT_EQ(loaded.node(v).name, original.node(v).name) << n;
    }
  }
}

/// The std::invalid_argument message read_floorplan throws for `text`, or
/// "accepted" when it parses.
std::string rejection(const std::string& text) {
  std::istringstream in(text);
  try {
    read_floorplan(in);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(FloorplanIo, RejectsDuplicateNodeNames) {
  const std::string msg =
      rejection("die 9000 9000\nnode a 0 0\nnode b 2000 0\nnode a 4000 0\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate node name 'a'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("first on line 2"), std::string::npos) << msg;
}

TEST(FloorplanIo, RejectsCoincidentNodes) {
  const std::string msg =
      rejection("node a 0 0\nnode b 2000 1000\n# same spot\n"
                "node c 2000 1000\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("coincident nodes"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'b' (line 2)"), std::string::npos) << msg;
}

TEST(FloorplanIo, RejectsNegativeCoordinates) {
  for (const char* node : {"node a -1 0\n", "node a 0 -2000\n"}) {
    const std::string msg = rejection(std::string("node z 0 0\n") + node);
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("negative coordinate"), std::string::npos) << msg;
  }
}

TEST(FloorplanIo, RejectsNodesOutsideDeclaredDie) {
  // The die may follow the nodes; the check runs once the file is read.
  const std::string msg =
      rejection("node a 0 0\nnode b 6000 0\nnode c 2000 3000\ndie 5000 4000\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("node outside the die"), std::string::npos) << msg;
  // The die's edge itself is inside.
  EXPECT_EQ(rejection("die 5000 4000\nnode a 5000 4000\nnode b 0 0\n"),
            "accepted");
}

TEST(FloorplanIo, ParsesCommentsAndBlankLines) {
  std::istringstream in(
      "# a floorplan\n"
      "\n"
      "die 5000 4000\n"
      "node alpha 100 200   # trailing comment\n"
      "node beta 300 400\n");
  const Floorplan fp = read_floorplan(in);
  ASSERT_EQ(fp.size(), 2);
  EXPECT_EQ(fp.node(0).name, "alpha");
  EXPECT_EQ(fp.position(1), (geom::Point{300, 400}));
  EXPECT_EQ(fp.die_width(), 5000);
}

TEST(FloorplanIo, DerivesDieFromBoundingBoxWhenMissing) {
  std::istringstream in("node a 0 0\nnode b 3000 2000\n");
  const Floorplan fp = read_floorplan(in);
  EXPECT_EQ(fp.die_width(), 4000);
  EXPECT_EQ(fp.die_height(), 3000);
}

TEST(FloorplanIo, RejectsMalformedInput) {
  {
    std::istringstream in("die -5 10\nnode a 0 0\n");
    EXPECT_THROW(read_floorplan(in), std::invalid_argument);
  }
  {
    std::istringstream in("node a 0\n");
    EXPECT_THROW(read_floorplan(in), std::invalid_argument);
  }
  {
    std::istringstream in("blob 1 2 3\n");
    EXPECT_THROW(read_floorplan(in), std::invalid_argument);
  }
  {
    std::istringstream in("die 10 10\n");
    EXPECT_THROW(read_floorplan(in), std::invalid_argument);  // no nodes
  }
}

TEST(FloorplanIo, MissingFileThrows) {
  EXPECT_THROW(load_floorplan("/nonexistent/path/fp.txt"), std::runtime_error);
}

TEST(TrafficPatterns, Permutation) {
  const Traffic t = Traffic::permutation(8, 3);
  ASSERT_EQ(t.size(), 8);
  for (const Signal& s : t.signals()) {
    EXPECT_EQ(s.dst, (s.src + 3) % 8);
  }
  EXPECT_THROW(Traffic::permutation(8, 0), std::invalid_argument);
  EXPECT_THROW(Traffic::permutation(8, 8), std::invalid_argument);
}

TEST(TrafficPatterns, Hotspot) {
  const Traffic t = Traffic::hotspot(8, 2);
  ASSERT_EQ(t.size(), 14);
  for (const Signal& s : t.signals()) {
    EXPECT_TRUE(s.src == 2 || s.dst == 2);
  }
  EXPECT_THROW(Traffic::hotspot(8, 8), std::invalid_argument);
}

TEST(TrafficPatterns, BitReversal) {
  const Traffic t = Traffic::bit_reversal(8);
  // 3-bit reversal: 0<->0, 1<->4, 2<->2, 3<->6, 5<->5, 7<->7. Fixed points
  // (0, 2, 5, 7) are skipped: 4 signals remain.
  ASSERT_EQ(t.size(), 4);
  for (const Signal& s : t.signals()) {
    NodeId rev = 0;
    for (int b = 0; b < 3; ++b) {
      if (s.src & (1 << b)) rev |= 1 << (2 - b);
    }
    EXPECT_EQ(s.dst, rev);
  }
  EXPECT_THROW(Traffic::bit_reversal(12), std::invalid_argument);
}

TEST(TrafficPatterns, Transpose) {
  const Traffic t = Traffic::transpose(4, 4);
  ASSERT_EQ(t.size(), 12);
  for (const Signal& s : t.signals()) {
    const int r = s.src / 4, c = s.src % 4;
    EXPECT_EQ(s.dst, c * 4 + r);
  }
  EXPECT_THROW(Traffic::transpose(3, 4), std::invalid_argument);
}

}  // namespace
}  // namespace xring::netlist
