#include "xring/synthesizer.hpp"

#include "obs/obs.hpp"

namespace xring {

Synthesizer::Synthesizer(const netlist::Floorplan& floorplan)
    : floorplan_(&floorplan) {}

SynthesisResult Synthesizer::run(const SynthesisOptions& options) const {
  obs::Span root("synth");
  const ring::RingBuildResult ring =
      ring::build_ring(*floorplan_, oracle(), options.ring);
  SynthesisResult out = synthesize_from_ring(options, ring, nullptr);
  // The root span covers ring construction, so its elapsed time alone is the
  // full wall-clock figure.
  out.seconds = root.elapsed_seconds();
  return out;
}

SynthesisResult Synthesizer::run_with_ring(const SynthesisOptions& options,
                                           const ring::RingBuildResult& ring,
                                           const SweepCache* cache) const {
  obs::Span root("synth");
  SynthesisResult out = synthesize_from_ring(options, ring, cache);
  // The ring (and the sweep cache, when given) was prebuilt outside this
  // call (the sweep layer reuses both across #wl settings); charging their
  // build time here keeps both entry points' `seconds` comparable — each
  // reports a full Step 1-4 synthesis.
  out.seconds = ring.seconds + (cache ? cache->seconds : 0.0) +
                root.elapsed_seconds();
  return out;
}

SweepCache Synthesizer::make_sweep_cache(
    const SynthesisOptions& options, const ring::RingBuildResult& ring) const {
  obs::Span span("sweep_cache");
  SweepCache cache;
  {
    obs::Span step2("shortcuts");
    cache.shortcuts = shortcut::build_shortcuts(ring.geometry, *floorplan_,
                                                options.shortcuts);
  }
  const netlist::Traffic traffic =
      options.traffic ? *options.traffic
                      : netlist::Traffic::all_to_all(floorplan_->size());
  cache.arcs = mapping::ArcTable(ring.geometry.tour, traffic);
  cache.substrate = analysis::RingSubstrate(ring.geometry, *floorplan_);
  cache.seconds = span.elapsed_seconds();
  return cache;
}

SynthesisResult Synthesizer::synthesize_from_ring(
    const SynthesisOptions& options, const ring::RingBuildResult& ring,
    const SweepCache* cache) const {
  SynthesisResult out;
  out.ring_stats = ring;

  analysis::RouterDesign& d = out.design;
  d.floorplan = floorplan_;
  d.traffic = options.traffic
                  ? *options.traffic
                  : netlist::Traffic::all_to_all(floorplan_->size());
  d.ring = ring.geometry;
  d.params = options.params;

  // Step 2: shortcuts (reused from the sweep cache when one is given — the
  // plan depends only on ring + floorplan + shortcut options, not on #wl).
  if (cache != nullptr) {
    d.shortcuts = cache->shortcuts;
  } else {
    obs::Span span("shortcuts");
    d.shortcuts = shortcut::build_shortcuts(d.ring, *floorplan_,
                                            options.shortcuts);
  }

  // Step 3: wavelength assignment, then openings, both on one incremental
  // occupancy index over d.mapping (and over the sweep-shared arc table
  // when available): the opening phase continues on the assignment's index,
  // which is freed before Step 4.
  {
    std::optional<mapping::ArcTable> local_arcs;
    std::optional<mapping::OccupancyIndex> index;
    {
      obs::Span span("mapping");
      if (cache == nullptr) local_arcs.emplace(d.ring.tour, d.traffic);
      index.emplace(cache ? cache->arcs : *local_arcs, d.mapping,
                    options.mapping.max_wavelengths);
      mapping::assign_wavelengths(d.ring.tour, d.traffic, d.shortcuts,
                                  *index);
    }
    obs::Span span("opening");
    out.opening_stats =
        mapping::create_openings(d.ring.tour, *index, options.openings);
  }

  // Step 4: PDN.
  if (options.build_pdn) {
    obs::Span span("pdn");
    std::vector<bool> has_shortcut(floorplan_->size(), false);
    for (const shortcut::Shortcut& s : d.shortcuts.shortcuts) {
      has_shortcut[s.a] = true;
      has_shortcut[s.b] = true;
    }
    d.pdn = options.pdn_style == SynthesisOptions::PdnStyle::kTree
                ? pdn::tree_pdn(d.ring.tour, d.mapping, has_shortcut, d.params,
                                &d.traffic)
                : pdn::comb_pdn(d.ring.tour, d.mapping, d.params, has_shortcut);
    d.has_pdn = true;
  }

  {
    obs::Span span("evaluate");
    // A sweep cache carries the evaluation substrate for this exact ring and
    // traffic; sharing it skips the per-setting rebuild without changing a
    // single evaluated bit (see analysis::EvalShared).
    out.metrics =
        cache ? analysis::evaluate(
                    d, analysis::EvalShared{&cache->substrate, &cache->arcs})
              : analysis::evaluate(d);
  }
  return out;
}

}  // namespace xring
