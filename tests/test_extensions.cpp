// Tests for the optional/extension features beyond the paper's default
// configuration: partial traffic patterns, multiple shortcuts per node, the
// Fig. 5(b) residue filter, latency analysis, and the SVG layout view.

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/latency.hpp"
#include "viz/svg.hpp"
#include "xring/synthesizer.hpp"

namespace xring {
namespace {

TEST(PartialTraffic, PermutationUsesFarFewerResources) {
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  SynthesisOptions all;
  all.mapping.max_wavelengths = 16;
  SynthesisOptions perm;
  perm.mapping.max_wavelengths = 16;
  perm.traffic = netlist::Traffic::permutation(16, 5);
  const auto ra = synth.run(all);
  const auto rp = synth.run(perm);
  EXPECT_EQ(static_cast<int>(rp.metrics.signals.size()), 16);
  EXPECT_LT(rp.metrics.waveguides, ra.metrics.waveguides);
  EXPECT_LT(rp.metrics.total_power_w, ra.metrics.total_power_w);
}

TEST(PartialTraffic, HotspotRoutesEverything) {
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.traffic = netlist::Traffic::hotspot(16, 3);
  const auto r = synth.run(opt);
  for (const auto& route : r.design.mapping.routes) {
    EXPECT_NE(route.kind, mapping::RouteKind::kUnrouted);
  }
  EXPECT_EQ(r.metrics.worst_crossings, 0);
}

TEST(MultiShortcut, RaisingTheCapAddsShortcuts) {
  const auto fp = netlist::Floorplan::standard(32);
  const auto ring = ring::build_ring(fp).geometry;
  shortcut::ShortcutOptions one;
  shortcut::ShortcutOptions two;
  two.max_per_node = 2;
  const auto plan1 = shortcut::build_shortcuts(ring, fp, one);
  const auto plan2 = shortcut::build_shortcuts(ring, fp, two);
  EXPECT_GE(plan2.shortcuts.size(), plan1.shortcuts.size());
  // The cap is respected in both runs.
  for (const auto& plan : {plan1, plan2}) {
    std::vector<int> uses(32, 0);
    for (const auto& s : plan.shortcuts) {
      uses[s.a]++;
      uses[s.b]++;
    }
    const int cap = &plan == &plan1 ? 1 : 2;
    for (const int u : uses) EXPECT_LE(u, cap);
  }
}

TEST(MultiShortcut, GreedyStillPrefersMaxGain) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp).geometry;
  shortcut::ShortcutOptions opt;
  opt.max_per_node = 3;
  const auto plan = shortcut::build_shortcuts(ring, fp, opt);
  for (std::size_t i = 1; i < plan.shortcuts.size(); ++i) {
    EXPECT_GE(plan.shortcuts[i - 1].gain, plan.shortcuts[i].gain);
  }
}

TEST(ResidueFilter, RemovingItCreatesReceiverNoise) {
  // The Fig. 5(b) claim, quantified: with the filter XRing is clean; without
  // it, drop residues travel on and hit downstream same-λ receivers.
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  SynthesisOptions with;
  with.mapping.max_wavelengths = 16;
  SynthesisOptions without;
  without.mapping.max_wavelengths = 16;
  without.params.crosstalk.residue_filter = false;
  const auto a = synth.run(with);
  const auto b = synth.run(without);
  EXPECT_EQ(a.metrics.noisy_signals, 0);
  EXPECT_GT(b.metrics.noisy_signals, 0);
  EXPECT_LT(b.metrics.snr_worst_db, a.metrics.snr_worst_db);
}

TEST(ResidueFilter, FilterCostsThroughLoss) {
  // The filter's price: one extra off-resonance MRR per bypassed receiver.
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  SynthesisOptions with;
  with.mapping.max_wavelengths = 16;
  SynthesisOptions without;
  without.mapping.max_wavelengths = 16;
  without.params.crosstalk.residue_filter = false;
  const auto a = synth.run(with);
  const auto b = synth.run(without);
  double through_with = 0, through_without = 0;
  for (const auto& s : a.metrics.signals) through_with += s.loss.through_mrrs;
  for (const auto& s : b.metrics.signals) through_without += s.loss.through_mrrs;
  EXPECT_GT(through_with, through_without);
}

TEST(Latency, TimeOfFlightMatchesPathLength) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  const auto r = synth.run();
  const auto latency = analysis::compute_latency(r.metrics, 4.2);
  ASSERT_EQ(latency.per_signal_ps.size(), r.metrics.signals.size());
  for (std::size_t i = 0; i < latency.per_signal_ps.size(); ++i) {
    EXPECT_NEAR(latency.per_signal_ps[i],
                r.metrics.signals[i].loss.path_mm * 4.2 / 0.299792458, 1e-9);
  }
  EXPECT_GE(latency.worst_ps, latency.mean_ps);
  // A few-cm path at group index 4.2 is tens to hundreds of picoseconds.
  EXPECT_GT(latency.worst_ps, 10.0);
  EXPECT_LT(latency.worst_ps, 2000.0);
}

TEST(Latency, ScalesWithGroupIndex) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  const auto r = synth.run();
  const auto slow = analysis::compute_latency(r.metrics, 4.2);
  const auto fast = analysis::compute_latency(r.metrics, 2.1);
  EXPECT_NEAR(slow.worst_ps / fast.worst_ps, 2.0, 1e-9);
}

TEST(Svg, RendersValidDocumentWithExpectedElements) {
  const auto fp = netlist::Floorplan::standard(16);
  Synthesizer synth(fp);
  const auto r = synth.run();
  std::ostringstream out;
  viz::write_svg(r.design, out);
  const std::string svg = out.str();
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One circle per node at least, plus openings.
  std::size_t circles = 0;
  for (std::size_t p = svg.find("<circle"); p != std::string::npos;
       p = svg.find("<circle", p + 1)) {
    ++circles;
  }
  EXPECT_GE(circles, 16u);
  EXPECT_NE(svg.find("<path"), std::string::npos);
  EXPECT_NE(svg.find("n15"), std::string::npos);  // node label
}

TEST(Svg, RejectsDetachedDesign) {
  analysis::RouterDesign d;
  std::ostringstream out;
  EXPECT_THROW(viz::write_svg(d, out), std::invalid_argument);
}

}  // namespace
}  // namespace xring
