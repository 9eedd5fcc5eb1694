// Feature ablation for the design choices DESIGN.md calls out: what each
// XRing ingredient (MILP ring, shortcuts, openings + tree PDN) contributes.
// Every row is the full 16- and 32-node flow with one ingredient removed.

#include <cstdio>

#include "report/table.hpp"
#include "xring/synthesizer.hpp"

namespace {

using namespace xring;

void row(report::Table& t, const char* name, const SynthesisResult& r) {
  double mean = 0;
  for (const auto& s : r.metrics.signals) mean += s.loss.star_db();
  mean /= static_cast<double>(r.metrics.signals.size());
  t.add_row({name, std::to_string(r.metrics.wavelengths),
             std::to_string(r.metrics.waveguides),
             report::num(r.metrics.il_star_worst_db, 2), report::num(mean, 2),
             report::num(r.metrics.total_power_w, 2),
             std::to_string(r.metrics.noisy_signals),
             report::snr(r.metrics.snr_worst_db),
             report::num(r.seconds, 2)});
}

void run_network(int n) {
  const auto fp = netlist::Floorplan::standard(n);
  Synthesizer synth(fp);
  report::Table t({"configuration", "#wl", "wgs", "il*_w", "il*_mean", "P",
                   "#s", "SNR_w", "T"});

  SynthesisOptions full;
  full.mapping.max_wavelengths = n;
  row(t, "full XRing", synth.run(full));

  SynthesisOptions no_milp = full;
  no_milp.ring.use_milp = false;
  row(t, "heuristic ring (no MILP)", synth.run(no_milp));

  SynthesisOptions no_shortcuts = full;
  no_shortcuts.shortcuts.enable = false;
  row(t, "no shortcuts", synth.run(no_shortcuts));

  SynthesisOptions no_openings = full;
  no_openings.openings.enable = false;
  row(t, "no openings (tree PDN kept)", synth.run(no_openings));

  // What the openings actually buy: without them the PDN must cross the
  // ring waveguides (the comb design every prior ring router used), and
  // the laser leakage at those crossings floods the receivers with noise.
  SynthesisOptions comb = full;
  comb.openings.enable = false;
  comb.pdn_style = SynthesisOptions::PdnStyle::kComb;
  row(t, "no openings -> comb PDN", synth.run(comb));

  // Without the Fig. 5(b) residue filter, drop residues travel on as
  // first-order noise (and bypassing signals save one MRR pass each).
  SynthesisOptions no_filter = full;
  no_filter.params.crosstalk.residue_filter = false;
  row(t, "no Fig.5(b) residue filter", synth.run(no_filter));

  // Relaxing the one-shortcut-per-node constraint (the paper's bound on
  // PDN-powered shortcut senders).
  SynthesisOptions multi = full;
  multi.shortcuts.max_per_node = 2;
  row(t, "2 shortcuts per node", synth.run(multi));

  std::printf("%d-node network\n%s\n", n, t.to_string().c_str());
}

}  // namespace

int main() {
  std::printf("=== Ablation: XRing feature contributions ===\n\n");
  run_network(16);
  run_network(32);
  return 0;
}
