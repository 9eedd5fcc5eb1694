// Differential testing of the loss engine: a slow, independently written
// reference calculator re-derives each ring signal's path length, device
// counts and total loss directly from the floorplan geometry and the raw
// mapping — no shared helpers with the production engine — and the two must
// agree bit-for-bit on the modelled quantities.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/evaluate.hpp"
#include "analysis_reference.hpp"
#include "xring/synthesizer.hpp"

namespace xring::analysis {
namespace {

struct Reference {
  double path_mm = 0.0;
  int through_mrrs = 0;
  int crossings = 0;
  double total_db = 0.0;
};

/// Recomputes a ring-routed signal's figures from first principles.
Reference reference_ring_loss(const RouterDesign& d, SignalId id) {
  const auto& sig = d.traffic.signal(id);
  const mapping::SignalRoute& route = d.mapping.routes[id];
  const mapping::RingWaveguide& wg = d.mapping.waveguides[route.waveguide];
  const ring::Tour& tour = d.ring.tour;
  const netlist::Floorplan& fp = *d.floorplan;
  const phys::LossParams& lp = d.params.loss;

  Reference ref;

  // Walk node to node in the travel direction, summing Manhattan hop
  // lengths straight from the floorplan (not from the tour's caches).
  const int step = wg.dir == mapping::Direction::kCw ? 1 : -1;
  int pos = tour.position(sig.src);
  geom::Coord arc_um = 0;
  std::vector<netlist::NodeId> intermediate;
  while (tour.at(pos) != sig.dst) {
    const netlist::NodeId here = tour.at(pos);
    const netlist::NodeId next = tour.at(pos + step);
    arc_um += geom::manhattan(fp.position(here), fp.position(next));
    if (next != sig.dst) intermediate.push_back(next);
    pos += step;
  }

  // Nested-ring length scale, re-derived: offsetting a closed rectilinear
  // curve by s adds 8s, so waveguide w is (L + 8*s*w)/L times longer.
  const double spacing = d.params.geometry.ring_spacing_um(fp.size());
  const double base = static_cast<double>(tour.total_length());
  const double scale = (base + 8.0 * spacing * route.waveguide) / base;
  ref.path_mm = arc_um / 1000.0 * scale;

  // Devices at the intermediate nodes, counted from the raw signal lists.
  const int rx_rings = d.params.crosstalk.residue_filter ? 2 : 1;
  for (const netlist::NodeId v : intermediate) {
    for (const netlist::SignalId other : wg.signals) {
      if (d.traffic.signal(other).dst == v) ref.through_mrrs += rx_rings;
      if (d.traffic.signal(other).src == v) ref.through_mrrs += 1;
    }
    if (d.has_pdn) {
      ref.crossings += d.pdn.crossings_at[route.waveguide][v];
    }
  }

  // Bends and ring-geometry crossings from the realized hop geometry.
  int bends = 0;
  {
    const reference::RefContext ctx(d);
    const auto hops =
        mapping::occupied_hops(tour, sig.src, sig.dst, wg.dir);
    bends = ctx.bends_on_hops(hops);
    for (const int h : hops) {
      for (int g = 0; g < tour.size(); ++g) {
        ref.crossings += ctx.hop_crossings(h, g);
      }
    }
  }

  ref.total_db = ref.path_mm * lp.propagation_db_per_mm +
                 bends * lp.bend_db + ref.through_mrrs * lp.through_db +
                 ref.crossings * lp.crossing_db + lp.modulator_db +
                 lp.drop_db + lp.photodetector_db;
  if (d.has_pdn) {
    ref.total_db +=
        d.pdn.ring_feed_db[route.waveguide][sig.src] + lp.coupler_db;
  }
  return ref;
}

class ReferenceEngine : public ::testing::TestWithParam<int> {};

TEST_P(ReferenceEngine, RingSignalsAgree) {
  const int n = GetParam();
  const auto fp = netlist::Floorplan::standard(n);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = n;
  const SynthesisResult r = synth.run(opt);
  const AnalysisContext ctx(r.design);

  int checked = 0;
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const auto kind = r.design.mapping.routes[id].kind;
    if (kind != mapping::RouteKind::kRingCw &&
        kind != mapping::RouteKind::kRingCcw) {
      continue;
    }
    const LossBreakdown fast = signal_loss(ctx, id);
    const Reference slow = reference_ring_loss(r.design, id);
    EXPECT_NEAR(fast.path_mm, slow.path_mm, 1e-9) << "signal " << id;
    EXPECT_EQ(fast.through_mrrs, slow.through_mrrs) << "signal " << id;
    EXPECT_EQ(fast.crossings, slow.crossings) << "signal " << id;
    EXPECT_NEAR(fast.total_db(), slow.total_db, 1e-9) << "signal " << id;
    ++checked;
  }
  EXPECT_GT(checked, n);  // plenty of ring-routed signals exist
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReferenceEngine, ::testing::Values(8, 16, 32));

TEST(ReferenceEngine, AgreesWithoutResidueFilterToo) {
  const auto fp = netlist::Floorplan::standard(8);
  Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.params.crosstalk.residue_filter = false;
  const SynthesisResult r = synth.run(opt);
  const AnalysisContext ctx(r.design);
  for (SignalId id = 0; id < r.design.traffic.size(); ++id) {
    const auto kind = r.design.mapping.routes[id].kind;
    if (kind != mapping::RouteKind::kRingCw &&
        kind != mapping::RouteKind::kRingCcw) {
      continue;
    }
    EXPECT_NEAR(signal_loss(ctx, id).total_db(),
                reference_ring_loss(r.design, id).total_db, 1e-9);
  }
}

}  // namespace
}  // namespace xring::analysis
