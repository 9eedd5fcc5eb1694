#include "baseline/ornoc.hpp"

#include "mapping/ornoc_assignment.hpp"
#include "obs/obs.hpp"

namespace xring::baseline {

SynthesisResult synthesize_ornoc(const netlist::Floorplan& floorplan,
                                 const ring::RingBuildResult& ring,
                                 const OrnocOptions& options) {
  obs::Span span("baseline.synth");

  SynthesisResult out;
  out.ring_stats = ring;

  analysis::RouterDesign& d = out.design;
  d.floorplan = &floorplan;
  d.traffic = netlist::Traffic::all_to_all(floorplan.size());
  d.ring = ring.geometry;
  d.params = options.params;

  d.mapping = mapping::ornoc_assignment(d.ring.tour, d.traffic,
                                        options.max_wavelengths);

  if (options.with_pdn) {
    obs::Span pdn_span("baseline.pdn");
    d.pdn = pdn::comb_pdn(d.ring.tour, d.mapping, d.params);
    d.has_pdn = true;
  }

  {
    obs::Span eval_span("baseline.evaluate");
    out.metrics = analysis::evaluate(d);
  }
  out.seconds = ring.seconds + span.elapsed_seconds();
  return out;
}

}  // namespace xring::baseline
