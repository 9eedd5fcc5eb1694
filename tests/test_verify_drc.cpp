#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "baseline/oring.hpp"
#include "mapping_reference.hpp"
#include "verify/drc.hpp"
#include "xring/synthesizer.hpp"

namespace xring::verify {
namespace {

using netlist::NodeId;
using netlist::SignalId;

SynthesisResult synthesize(int n) {
  static std::vector<std::unique_ptr<netlist::Floorplan>> keep;
  keep.push_back(
      std::make_unique<netlist::Floorplan>(netlist::Floorplan::standard(n)));
  Synthesizer synth(*keep.back());
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  return synth.run(opt);
}

DrcOptions options_for(int n) {
  DrcOptions opt;
  opt.max_wavelengths = n;
  return opt;
}

TEST(Drc, SynthesizedDesignsAreClean) {
  for (const int n : {8, 16, 32}) {
    const auto r = synthesize(n);
    const auto violations = check(r.design, options_for(n));
    EXPECT_TRUE(violations.empty())
        << n << "-node design:\n" << report(violations);
  }
}

TEST(Drc, BaselineWithoutOpeningsIsCleanWhenNotRequired) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp);
  baseline::OringOptions oo;
  oo.max_wavelengths = 16;
  const auto r = baseline::synthesize_oring(fp, ring, oo);
  DrcOptions opt = options_for(16);
  opt.require_openings = false;  // ORing has none by design
  EXPECT_TRUE(check(r.design, opt).empty());
  // With the requirement on, every waveguide is flagged.
  opt.require_openings = true;
  const auto violations = check(r.design, opt);
  int missing = 0;
  for (const auto& v : violations) {
    if (v.rule == Violation::Rule::kOpeningMissing) ++missing;
  }
  EXPECT_EQ(missing, static_cast<int>(r.design.mapping.waveguides.size()));
}

TEST(Drc, DetectsUnroutedSignal) {
  auto r = synthesize(8);
  r.design.mapping.routes[3] = mapping::SignalRoute{};
  const auto violations = check(r.design, options_for(8));
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().rule, Violation::Rule::kUnroutedSignal);
}

TEST(Drc, DetectsWavelengthCapViolation) {
  auto r = synthesize(8);
  // Push one ring signal's wavelength beyond the cap.
  for (auto& route : r.design.mapping.routes) {
    if (route.kind == mapping::RouteKind::kRingCw) {
      route.wavelength = 99;
      break;
    }
  }
  bool found = false;
  for (const auto& v : check(r.design, options_for(8))) {
    found |= v.rule == Violation::Rule::kWavelengthCap;
  }
  EXPECT_TRUE(found);
}

TEST(Drc, DetectsArcOverlap) {
  auto r = synthesize(8);
  // Force two same-waveguide signals onto one wavelength. With all-to-all
  // traffic some pair on the same waveguide must overlap once they share λ0.
  bool corrupted = false;
  for (auto& wg : r.design.mapping.waveguides) {
    if (wg.signals.size() < 2) continue;
    for (const auto id : wg.signals) {
      r.design.mapping.routes[id].wavelength = 0;
    }
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);
  bool found = false;
  for (const auto& v : check(r.design, options_for(8))) {
    found |= v.rule == Violation::Rule::kArcOverlap;
  }
  EXPECT_TRUE(found);
}

// Two cw signals moved onto one waveguide at a wavelength no other signal
// there uses; the arc-overlap messages the DRC reports for that waveguide.
std::vector<std::string> overlaps_of_pair(int from_a, int to_a, int from_b,
                                          int to_b) {
  auto r = synthesize(8);
  analysis::RouterDesign& d = r.design;
  const ring::Tour& tour = d.ring.tour;
  const auto signal_between = [&](int from_pos, int to_pos) {
    for (const auto& sig : d.traffic.signals()) {
      if (sig.src == tour.at(from_pos) && sig.dst == tour.at(to_pos)) {
        return sig.id;
      }
    }
    return SignalId{-1};
  };
  const SignalId a = signal_between(from_a, to_a);
  const SignalId b = signal_between(from_b, to_b);
  int w = 0;
  while (d.mapping.waveguides[w].dir != mapping::Direction::kCw) ++w;
  for (const SignalId id : {a, b}) {
    mapping::SignalRoute& route = d.mapping.routes[id];
    if (route.kind == mapping::RouteKind::kRingCw ||
        route.kind == mapping::RouteKind::kRingCcw) {
      auto& old = d.mapping.waveguides[route.waveguide].signals;
      old.erase(std::find(old.begin(), old.end(), id));
    }
    route = {mapping::RouteKind::kRingCw, w, 99, -1, -1};
    d.mapping.waveguides[w].signals.push_back(id);
  }
  std::vector<std::string> got;
  for (const Violation& v : check(d, options_for(8))) {
    if (v.rule == Violation::Rule::kArcOverlap) got.push_back(v.message);
  }
  return got;
}

TEST(Drc, DetectsArcOverlapAcrossTourWrap) {
  // Tour positions 7 -> 2 cover hops 7, 0 and 1; 1 -> 3 covers 1 and 2.
  // Sorted by start, only the wrap test (last arc's end against the first
  // arc's start + n) sees the shared hop 1.
  const std::vector<std::string> got = overlaps_of_pair(7, 2, 1, 3);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got.front().find(" wavelength 99"), std::string::npos)
      << got.front();
  // 6 -> 0 covers hops 6 and 7, 0 -> 2 covers 0 and 1: they touch at the
  // wrap and share no hop.
  EXPECT_TRUE(overlaps_of_pair(6, 0, 0, 2).empty());
}

TEST(Drc, DetectsBlockedOpening) {
  auto r = synthesize(16);
  // Move a waveguide's opening onto a busy node.
  for (auto& wg : r.design.mapping.waveguides) {
    if (wg.signals.empty()) continue;
    const auto& sig = r.design.traffic.signal(wg.signals.front());
    const auto interior = mapping::reference::interior_nodes(
        r.design.ring.tour, sig.src, sig.dst, wg.dir);
    if (interior.empty()) continue;
    wg.opening = interior.front();
    break;
  }
  bool found = false;
  for (const auto& v : check(r.design, options_for(16))) {
    found |= v.rule == Violation::Rule::kOpeningBlocked;
  }
  EXPECT_TRUE(found);
}

TEST(Drc, DetectsShortcutNodeCapViolation) {
  auto r = synthesize(16);
  ASSERT_GE(r.design.shortcuts.shortcuts.size(), 2u);
  // Pretend two shortcuts share a node.
  r.design.shortcuts.shortcuts[1].a = r.design.shortcuts.shortcuts[0].a;
  bool found = false;
  for (const auto& v : check(r.design, options_for(16))) {
    found |= v.rule == Violation::Rule::kShortcutNodeCap;
  }
  EXPECT_TRUE(found);
}

TEST(Drc, DetectsCseWavelengthClash) {
  // Build the Fig. 7-style crossing pair, then force both direct signals
  // onto the same wavelength.
  const auto fp = netlist::Floorplan::ring_layout(3, 3, 1000);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = 8;
  auto r = synth.run(opt);
  bool has_crossed = false;
  for (const auto& s : r.design.shortcuts.shortcuts) {
    has_crossed |= s.crossing_partner >= 0;
  }
  ASSERT_TRUE(has_crossed);
  for (auto& route : r.design.mapping.routes) {
    if (route.kind == mapping::RouteKind::kShortcut) route.wavelength = 0;
  }
  bool found = false;
  for (const auto& v : check(r.design, options_for(8))) {
    found |= v.rule == Violation::Rule::kCseWavelengthClash;
  }
  EXPECT_TRUE(found);
}

TEST(Drc, DetectsMissingPdnFeed) {
  auto r = synthesize(8);
  r.design.pdn.ring_feed_db[0].assign(8, -1.0);
  bool found = false;
  for (const auto& v : check(r.design, options_for(8))) {
    found |= v.rule == Violation::Rule::kPdnMissingFeed;
  }
  EXPECT_TRUE(found);
}

/// The arc-overlap and opening-blocked verdicts derived hop by hop: each
/// arc marked into a std::vector<bool> over the tour's hops, each opening
/// tested against the arc's interior positions. Returns the messages in
/// check()'s emission order (arc pairs by (w, i<j), then openings by w).
std::vector<std::string> per_hop_verdicts(const analysis::RouterDesign& d) {
  const ring::Tour& tour = d.ring.tour;
  const int n = tour.size();
  auto covered = [&](SignalId id, mapping::Direction dir) {
    const auto& sig = d.traffic.signal(id);
    const NodeId from = dir == mapping::Direction::kCw ? sig.src : sig.dst;
    const NodeId to = dir == mapping::Direction::kCw ? sig.dst : sig.src;
    std::vector<bool> hops(n, false);
    for (int p = tour.position(from); tour.at(p) != to; ++p) {
      hops[p % n] = true;
    }
    return hops;
  };
  std::vector<std::string> out;
  const auto& wgs = d.mapping.waveguides;
  for (std::size_t w = 0; w < wgs.size(); ++w) {
    for (std::size_t i = 0; i < wgs[w].signals.size(); ++i) {
      for (std::size_t j = i + 1; j < wgs[w].signals.size(); ++j) {
        const SignalId a = wgs[w].signals[i], b = wgs[w].signals[j];
        const int wl = d.mapping.routes[a].wavelength;
        if (wl != d.mapping.routes[b].wavelength) continue;
        const std::vector<bool> ha = covered(a, wgs[w].dir);
        const std::vector<bool> hb = covered(b, wgs[w].dir);
        bool overlap = false;
        for (int h = 0; h < n; ++h) overlap |= ha[h] && hb[h];
        if (overlap) {
          out.push_back("signals " + std::to_string(a) + " and " +
                        std::to_string(b) + " overlap on waveguide " +
                        std::to_string(w) + " wavelength " +
                        std::to_string(wl));
        }
      }
    }
  }
  for (std::size_t w = 0; w < wgs.size(); ++w) {
    if (wgs[w].opening < 0) continue;
    int passing = 0;
    for (const SignalId id : wgs[w].signals) {
      // Interior nodes: every node the arc enters that is not its end.
      const std::vector<bool> hops = covered(id, wgs[w].dir);
      const int pos = tour.position(wgs[w].opening);
      passing += hops[pos] && hops[(pos + n - 1) % n];
    }
    if (passing > 0) {
      out.push_back(std::to_string(passing) +
                    " signal(s) pass the opening of waveguide " +
                    std::to_string(w));
    }
  }
  return out;
}

TEST(Drc, ArcAndOpeningVerdictsMatchPerHopReference) {
  // Seeded random re-mappings of synthesized designs: every ring-routed
  // signal lands on a random waveguide and one of a few wavelengths, and
  // every opening moves to a random node, so overlaps and blocked openings
  // are common.
  std::mt19937 rng(16);
  int overlaps = 0, blocked = 0;
  for (const int n : {8, 16, 32}) {
    const SynthesisResult base = synthesize(n);
    for (int trial = 0; trial < 25; ++trial) {
      analysis::RouterDesign d = base.design;
      auto& wgs = d.mapping.waveguides;
      std::uniform_int_distribution<int> pick_wg(0, wgs.size() - 1);
      std::uniform_int_distribution<int> pick_wl(0, 2);
      std::uniform_int_distribution<NodeId> pick_node(0, n - 1);
      for (auto& wg : wgs) {
        wg.signals.clear();
        wg.opening = pick_node(rng);
      }
      for (std::size_t id = 0; id < d.mapping.routes.size(); ++id) {
        mapping::SignalRoute& r = d.mapping.routes[id];
        if (r.kind != mapping::RouteKind::kRingCw &&
            r.kind != mapping::RouteKind::kRingCcw) {
          continue;
        }
        r.waveguide = pick_wg(rng);
        r.wavelength = pick_wl(rng);
        r.kind = wgs[r.waveguide].dir == mapping::Direction::kCw
                     ? mapping::RouteKind::kRingCw
                     : mapping::RouteKind::kRingCcw;
        wgs[r.waveguide].signals.push_back(static_cast<SignalId>(id));
      }
      std::vector<std::string> got;
      for (const Violation& v : check(d, options_for(n))) {
        overlaps += v.rule == Violation::Rule::kArcOverlap;
        blocked += v.rule == Violation::Rule::kOpeningBlocked;
        if (v.rule == Violation::Rule::kArcOverlap ||
            v.rule == Violation::Rule::kOpeningBlocked) {
          got.push_back(v.message);
        }
      }
      ASSERT_EQ(got, per_hop_verdicts(d)) << n << " nodes, trial " << trial;
    }
  }
  EXPECT_GT(overlaps, 0);
  EXPECT_GT(blocked, 0);
}

TEST(Drc, ReportFormats) {
  EXPECT_EQ(report({}), "clean\n");
  const std::vector<Violation> v = {
      {Violation::Rule::kArcOverlap, "signals 1 and 2 overlap"}};
  EXPECT_EQ(report(v), "[arc-overlap] signals 1 and 2 overlap\n");
}

TEST(Drc, RuleNamesAreDistinct) {
  using R = Violation::Rule;
  const R rules[] = {R::kRingCrossing,   R::kChordCrossesRing,
                     R::kChordOverdegree, R::kUnroutedSignal,
                     R::kWavelengthCap,  R::kArcOverlap,
                     R::kOpeningMissing, R::kOpeningBlocked,
                     R::kShortcutNodeCap, R::kPdnMissingFeed,
                     R::kCseWavelengthClash};
  std::vector<std::string> names;
  for (const R r : rules) names.push_back(to_string(r));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace xring::verify
