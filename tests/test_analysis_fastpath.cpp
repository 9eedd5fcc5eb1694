// Differential testing of the indexed analysis engine against the verbatim
// pre-index reference (analysis_reference.hpp): for every design family the
// fast path must reproduce the reference RouterMetrics byte for byte —
// EXPECT_EQ on doubles, no tolerance — because the index changes only which
// pairs get *visited* and when a factor is computed, never a factor's value
// or the order of the multiplications. Also holds the
// crossbar's precomputed path() against path_reference() over all pairs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "analysis/evaluate.hpp"
#include "analysis/substrate.hpp"
#include "analysis_reference.hpp"
#include "baseline/oring.hpp"
#include "baseline/ornoc.hpp"
#include "crossbar/physical.hpp"
#include "pdn/pdn.hpp"
#include "xring/synthesizer.hpp"

namespace xring::analysis {
namespace {

void expect_metrics_equal(const RouterMetrics& a, const RouterMetrics& b) {
  EXPECT_EQ(a.wavelengths, b.wavelengths);
  EXPECT_EQ(a.waveguides, b.waveguides);
  EXPECT_EQ(a.il_worst_db, b.il_worst_db);
  EXPECT_EQ(a.il_star_worst_db, b.il_star_worst_db);
  EXPECT_EQ(a.worst_path_mm, b.worst_path_mm);
  EXPECT_EQ(a.worst_crossings, b.worst_crossings);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.noisy_signals, b.noisy_signals);
  EXPECT_EQ(a.snr_worst_db, b.snr_worst_db);
  EXPECT_EQ(a.laser_mw, b.laser_mw);

  ASSERT_EQ(a.signals.size(), b.signals.size());
  for (std::size_t i = 0; i < a.signals.size(); ++i) {
    const LossBreakdown& x = a.signals[i].loss;
    const LossBreakdown& y = b.signals[i].loss;
    EXPECT_EQ(x.propagation_db, y.propagation_db) << "signal " << i;
    EXPECT_EQ(x.modulator_db, y.modulator_db) << "signal " << i;
    EXPECT_EQ(x.drop_db, y.drop_db) << "signal " << i;
    EXPECT_EQ(x.through_db, y.through_db) << "signal " << i;
    EXPECT_EQ(x.crossing_db, y.crossing_db) << "signal " << i;
    EXPECT_EQ(x.bend_db, y.bend_db) << "signal " << i;
    EXPECT_EQ(x.photodetector_db, y.photodetector_db) << "signal " << i;
    EXPECT_EQ(x.pdn_db, y.pdn_db) << "signal " << i;
    EXPECT_EQ(x.coupler_db, y.coupler_db) << "signal " << i;
    EXPECT_EQ(x.path_mm, y.path_mm) << "signal " << i;
    EXPECT_EQ(x.crossings, y.crossings) << "signal " << i;
    EXPECT_EQ(x.through_mrrs, y.through_mrrs) << "signal " << i;
    EXPECT_EQ(x.bends, y.bends) << "signal " << i;
    EXPECT_EQ(a.signals[i].noise_mw, b.signals[i].noise_mw) << "signal " << i;
    EXPECT_EQ(a.signals[i].snr_db, b.signals[i].snr_db) << "signal " << i;
  }

  // The attribution ledger must match row for row, in order: evaluate adds
  // the rows into noise_mw in that order, so it is part of the determinism
  // contract.
  ASSERT_EQ(a.xtalk_ledger.size(), b.xtalk_ledger.size());
  for (std::size_t i = 0; i < a.xtalk_ledger.size(); ++i) {
    const XtalkContribution& x = a.xtalk_ledger[i];
    const XtalkContribution& y = b.xtalk_ledger[i];
    EXPECT_EQ(x.victim, y.victim) << "row " << i;
    EXPECT_EQ(x.aggressor, y.aggressor) << "row " << i;
    EXPECT_EQ(x.source, y.source) << "row " << i;
    EXPECT_EQ(x.node, y.node) << "row " << i;
    EXPECT_EQ(x.noise_mw, y.noise_mw) << "row " << i;
  }
}

void expect_fast_path_matches_reference(const RouterDesign& d) {
  expect_metrics_equal(evaluate(d), reference::evaluate_reference(d));
}

TEST(AnalysisFastPath, AllToAllMatchesReference) {
  for (const int n : {8, 16, 32}) {
    SCOPED_TRACE(n);
    const auto fp = netlist::Floorplan::standard(n);
    const Synthesizer synth(fp);
    const SynthesisResult r = synth.run();
    expect_fast_path_matches_reference(r.design);
    expect_metrics_equal(r.metrics, reference::evaluate_reference(r.design));
  }
}

TEST(AnalysisFastPath, SeededRandomTrafficMatchesReference) {
  const int n = 16;
  const auto fp = netlist::Floorplan::standard(n);
  const Synthesizer synth(fp);
  std::mt19937 rng(6021023);
  std::uniform_int_distribution<int> node(0, n - 1);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    std::vector<netlist::Signal> signals;
    for (netlist::SignalId id = 0; id < 40; ++id) {
      netlist::NodeId src = node(rng), dst = node(rng);
      while (dst == src) dst = node(rng);
      signals.push_back({id, src, dst});
    }
    SynthesisOptions opt;
    opt.traffic = netlist::Traffic(std::move(signals));
    const SynthesisResult r = synth.run(opt);
    expect_fast_path_matches_reference(r.design);
  }
}

TEST(AnalysisFastPath, CrossingRingAblationMatchesReference) {
  // A deliberately bad fixed tour whose realized geometry self-crosses,
  // exercising the kRingCrossing noise path the synthesized (crossing-free)
  // rings never reach.
  const auto fp = netlist::Floorplan::standard(16);
  const std::vector<netlist::NodeId> order = {0, 9, 2, 11, 4,  13, 6, 15,
                                              8, 1, 10, 3,  12, 5,  14, 7};
  ring::RingBuildResult ring;
  ring.geometry = ring::realize(ring::Tour(order, &fp), fp);
  ASSERT_GT(ring.geometry.crossings, 0);
  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run_with_ring({}, ring);
  expect_fast_path_matches_reference(r.design);
}

TEST(AnalysisFastPath, VariantConfigurationsMatchReference) {
  const auto fp = netlist::Floorplan::standard(16);
  const Synthesizer synth(fp);
  {
    SCOPED_TRACE("comb pdn");
    SynthesisOptions opt;
    opt.pdn_style = SynthesisOptions::PdnStyle::kComb;
    expect_fast_path_matches_reference(synth.run(opt).design);
  }
  {
    SCOPED_TRACE("no residue filter");
    SynthesisOptions opt;
    opt.params.crosstalk.residue_filter = false;
    expect_fast_path_matches_reference(synth.run(opt).design);
  }
  {
    SCOPED_TRACE("no pdn");
    SynthesisOptions opt;
    opt.build_pdn = false;
    expect_fast_path_matches_reference(synth.run(opt).design);
  }
}

/// A random mapping of random traffic over a shuffled tour of an n-node
/// line: `waveguides` ring waveguides of random direction and opening, each
/// signal on a random one with a random wavelength out of `wavelengths`.
/// Nothing enforces arc-disjointness, so buckets hold same-wavelength
/// receivers too.
RouterDesign random_mapping(const netlist::Floorplan& fp, int waveguides,
                            int wavelengths, std::mt19937& rng) {
  const int n = fp.size();
  std::vector<netlist::NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  RouterDesign d;
  d.floorplan = &fp;
  d.ring.tour = ring::Tour(order, &fp);
  std::uniform_int_distribution<int> node(0, n - 1);
  std::uniform_int_distribution<int> wg(0, waveguides - 1);
  std::uniform_int_distribution<int> wl(0, wavelengths - 1);
  std::vector<netlist::Signal> signals;
  for (netlist::SignalId id = 0; id < 3 * n; ++id) {
    const netlist::NodeId src = node(rng);
    netlist::NodeId dst = node(rng);
    while (dst == src) dst = node(rng);
    signals.push_back({id, src, dst});
  }
  d.traffic = netlist::Traffic(std::move(signals));
  for (int w = 0; w < waveguides; ++w) {
    const mapping::Direction dir = rng() % 2 == 0 ? mapping::Direction::kCw
                                                  : mapping::Direction::kCcw;
    d.mapping.waveguides[d.mapping.add_waveguide(dir)].opening = node(rng);
  }
  d.mapping.routes.resize(d.traffic.size());
  for (netlist::SignalId id = 0; id < d.traffic.size(); ++id) {
    mapping::SignalRoute& r = d.mapping.routes[id];
    r.waveguide = wg(rng);
    r.wavelength = wl(rng);
    r.kind = d.mapping.waveguides[r.waveguide].dir == mapping::Direction::kCw
                 ? mapping::RouteKind::kRingCw
                 : mapping::RouteKind::kRingCcw;
    d.mapping.waveguides[r.waveguide].signals.push_back(id);
  }
  for (mapping::RingWaveguide& w : d.mapping.waveguides) {
    std::shuffle(w.signals.begin(), w.signals.end(), rng);
  }
  d.mapping.wavelengths_used = wavelengths;
  return d;
}

TEST(AnalysisFastPath, BaselineDesignsMatchReference) {
  // ORNoC and ORing drive the ring noise walk the XRing designs above never
  // reach: every comb-PDN tap walks all of the laser's wavelengths at once
  // around the crossed waveguide, and without the residue filter every
  // ring signal walks its drop residue.
  for (const int n : {8, 16, 32}) {
    const auto fp = netlist::Floorplan::standard(n);
    const ring::RingBuildResult ring = ring::build_ring(fp);
    for (const int wl : {n / 2, n}) {
      for (const bool pdn : {true, false}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " #wl=" << wl
                                        << " pdn=" << pdn);
        baseline::OrnocOptions ornoc;
        ornoc.max_wavelengths = wl;
        ornoc.with_pdn = pdn;
        {
          SCOPED_TRACE("ornoc");
          expect_fast_path_matches_reference(
              baseline::synthesize_ornoc(fp, ring, ornoc).design);
        }
        if (pdn && wl == n) {
          SCOPED_TRACE("ornoc without residue filter");
          ornoc.params.crosstalk.residue_filter = false;
          expect_fast_path_matches_reference(
              baseline::synthesize_ornoc(fp, ring, ornoc).design);
        }
        baseline::OringOptions oring;
        oring.max_wavelengths = wl;
        oring.with_pdn = pdn;
        SCOPED_TRACE("oring");
        expect_fast_path_matches_reference(
            baseline::synthesize_oring(fp, ring, oring).design);
      }
    }
  }
}

TEST(AnalysisFastPath, RandomMappingsMatchReference) {
  // Random, non-disjoint mappings under a comb PDN reach the walk rules no
  // synthesized design needs: several same-wavelength receivers in one
  // bucket (the first in waveguide order absorbs), and — on the lossy
  // waveguides — lanes that fall below the negligible-power cutoff
  // mid-walk, one hop before a receiver that would otherwise absorb them.
  std::mt19937 rng(2811);
  for (const int n : {13, 37}) {
    const auto fp = netlist::Floorplan::grid(1, n, 2000);
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " round " << round);
      RouterDesign d = random_mapping(fp, 5, 4, rng);
      d.has_pdn = true;
      d.pdn = pdn::comb_pdn(d.ring.tour, d.mapping, d.params);
      expect_fast_path_matches_reference(d);
      d.params.crosstalk.residue_filter = false;
      expect_fast_path_matches_reference(d);
      d.params.loss.propagation_db_per_mm = 1.5;
      expect_fast_path_matches_reference(d);
    }
  }
}

TEST(AnalysisFastPath, SharedSubstrateMatchesLocal) {
  // evaluate() with a SweepCache-style shared substrate must be
  // bit-identical to evaluate() building its own locals.
  const auto fp = netlist::Floorplan::standard(16);
  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run();
  const RouterDesign& d = r.design;
  const RingSubstrate substrate(d.ring, *d.floorplan);
  const mapping::ArcTable arcs(d.ring.tour, d.traffic);
  expect_metrics_equal(evaluate(d, EvalShared{&substrate, &arcs}),
                       evaluate(d));
}

/// Every cell count, interior sum and receiver bucket of the index against
/// the brute-force rescans of `d`'s waveguide signal lists.
void expect_index_matches_brute_force(const RouterDesign& d) {
  const ring::Tour& tour = d.ring.tour;
  const int n = tour.size();
  const mapping::ArcTable arcs(tour, d.traffic);
  const DeviceIndex dev(d, arcs);
  for (int w = 0; w < static_cast<int>(d.mapping.waveguides.size()); ++w) {
    SCOPED_TRACE(testing::Message() << "waveguide " << w);
    std::vector<int> rx(n), tx(n), pdn(n, 0);
    for (int p = 0; p < n; ++p) {
      const netlist::NodeId v = tour.at(p);
      rx[p] = reference::receivers_at(d, w, v);
      tx[p] = reference::senders_at(d, w, v);
      if (d.has_pdn) pdn[p] = d.pdn.crossings_at[w][v];
      EXPECT_EQ(dev.receivers_at(w, p), rx[p]) << "pos " << p;
      EXPECT_EQ(dev.senders_at(w, p), tx[p]) << "pos " << p;
      EXPECT_EQ(dev.pdn_crossings_at(w, p), pdn[p]) << "pos " << p;

      std::vector<std::pair<int, SignalId>> bucket;
      for (const SignalId id : d.mapping.waveguides[w].signals) {
        if (d.traffic.signal(id).dst == v) {
          bucket.emplace_back(d.mapping.routes[id].wavelength, id);
        }
      }
      const auto got = dev.receivers(w, p);
      ASSERT_EQ(got.size(), bucket.size()) << "pos " << p;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        EXPECT_EQ(got[i].wl, bucket[i].first) << "pos " << p << " #" << i;
        EXPECT_EQ(got[i].id, bucket[i].second) << "pos " << p << " #" << i;
      }
    }
    for (int start = 0; start < n; ++start) {
      int rx_sum = 0, tx_sum = 0, pdn_sum = 0;
      for (int len = 0; len <= n; ++len) {
        if (len >= 2) {
          const int p = (start + len - 1) % n;
          rx_sum += rx[p];
          tx_sum += tx[p];
          pdn_sum += pdn[p];
        }
        ASSERT_EQ(dev.rx_on_interior(w, start, len), rx_sum)
            << "start " << start << " len " << len;
        ASSERT_EQ(dev.tx_on_interior(w, start, len), tx_sum)
            << "start " << start << " len " << len;
        ASSERT_EQ(dev.pdn_on_interior(w, start, len), pdn_sum)
            << "start " << start << " len " << len;
      }
    }
  }
}

TEST(DeviceIndex, MatchesBruteForceDevices) {
  std::mt19937 rng(170513);
  const phys::Parameters params = phys::Parameters::oring();
  for (const int n : {13, 37, 130}) {
    const auto fp = netlist::Floorplan::grid(1, n, 2000);
    for (const int waveguides : {1, 4, 9}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " waveguides="
                                      << waveguides);
      RouterDesign d = random_mapping(fp, waveguides, 4, rng);
      {
        SCOPED_TRACE("no pdn");
        expect_index_matches_brute_force(d);
      }
      d.has_pdn = true;
      {
        SCOPED_TRACE("tree pdn");
        d.pdn = pdn::tree_pdn(d.ring.tour, d.mapping,
                              std::vector<bool>(n, false), params, &d.traffic);
        expect_index_matches_brute_force(d);
      }
      {
        SCOPED_TRACE("comb pdn");
        d.pdn = pdn::comb_pdn(d.ring.tour, d.mapping, params);
        if (waveguides > 1) {
          EXPECT_GT(d.pdn.total_crossings, 0);
        }
        expect_index_matches_brute_force(d);
      }
      {
        // The comb crosses a waveguide equally at every node; random
        // per-node counts also pin which node each position reads.
        SCOPED_TRACE("random crossings");
        std::uniform_int_distribution<int> count(0, 3);
        for (std::vector<int>& row : d.pdn.crossings_at) {
          for (int& c : row) c = count(rng) == 3 ? count(rng) : 0;
        }
        expect_index_matches_brute_force(d);
      }
    }
  }

  // Hand-built: two same-wavelength receivers at one node, listed out of id
  // order. The bucket keeps the waveguide's order, so the first (signal 5)
  // is the one the crosstalk walk lets absorb wavelength 0.
  SCOPED_TRACE("hand-built");
  const auto fp = netlist::Floorplan::grid(1, 4, 2000);
  RouterDesign d;
  d.floorplan = &fp;
  d.ring.tour = ring::Tour({0, 1, 2, 3}, &fp);
  std::vector<netlist::Signal> signals;
  for (netlist::SignalId id = 0; id < 8; ++id) {
    signals.push_back({id, id % 2 == 0 ? 0 : 1, 3});
  }
  d.traffic = netlist::Traffic(std::move(signals));
  d.mapping.add_waveguide(mapping::Direction::kCw);
  d.mapping.routes.resize(8);
  d.mapping.waveguides[0].signals = {5, 2, 7, 0};
  for (const auto& [id, wl] : {std::pair{5, 0}, {2, 1}, {7, 0}, {0, 2}}) {
    d.mapping.routes[id] = {mapping::RouteKind::kRingCw, 0, wl, -1, -1};
  }
  expect_index_matches_brute_force(d);
  const mapping::ArcTable arcs(d.ring.tour, d.traffic);
  const DeviceIndex dev(d, arcs);
  const auto bucket = dev.receivers(0, 3);
  ASSERT_EQ(bucket.size(), 4u);
  EXPECT_EQ(bucket[0].id, 5);
  EXPECT_EQ(bucket[2].id, 7);
  EXPECT_EQ(bucket[0].wl, bucket[2].wl);
}

TEST(AnalysisFastPath, CrossbarPathMatchesReference) {
  using crossbar::CrossbarPath;
  using crossbar::PhysicalSynthesis;
  using crossbar::SynthesisStyle;
  const int n = 16;
  const auto fp = netlist::Floorplan::standard(n);
  const auto params = phys::Parameters::proton_plus();
  const crossbar::LambdaRouter topo(n);
  for (const SynthesisStyle style :
       {SynthesisStyle::kNaive, SynthesisStyle::kPlanarized,
        SynthesisStyle::kCompact}) {
    SCOPED_TRACE(crossbar::to_string(style));
    const PhysicalSynthesis ps(topo, fp, style, params);
    for (crossbar::NodeId s = 0; s < n; ++s) {
      for (crossbar::NodeId d = 0; d < n; ++d) {
        if (s == d) continue;
        const CrossbarPath fast = ps.path(s, d);
        const CrossbarPath ref = ps.path_reference(s, d);
        EXPECT_EQ(fast.length_mm, ref.length_mm) << s << "->" << d;
        EXPECT_EQ(fast.crossings, ref.crossings) << s << "->" << d;
        EXPECT_EQ(fast.drops, ref.drops) << s << "->" << d;
        EXPECT_EQ(fast.throughs, ref.throughs) << s << "->" << d;
        EXPECT_EQ(fast.il_db, ref.il_db) << s << "->" << d;
      }
    }
  }
}

}  // namespace
}  // namespace xring::analysis
