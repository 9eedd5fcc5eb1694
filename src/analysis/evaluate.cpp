#include "analysis/evaluate.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "par/pool.hpp"
#include "phys/units.hpp"

namespace xring::analysis {

RouterMetrics evaluate(const RouterDesign& design) {
  return evaluate(design, EvalShared{});
}

RouterMetrics evaluate(const RouterDesign& design, const EvalShared& shared) {
  obs::Span span("analysis");
  const AnalysisContext ctx(design, shared.ring, shared.arcs);
  const int num_signals = design.traffic.size();

  RouterMetrics m;
  m.wavelengths = design.mapping.wavelengths_used;
  m.waveguides = static_cast<int>(design.mapping.waveguides.size());
  m.signals.resize(num_signals);

  // --- Losses -----------------------------------------------------------
  // Per-signal loss walks are independent (the context is immutable and
  // each iteration writes only its own record), so they fan out over the
  // global pool. Every record holds exactly the value the serial loop would
  // have written — no cross-signal accumulation happens here.
  {
    par::ThreadPool& pool = par::global_pool();
    const long grain = std::max(1L, static_cast<long>(num_signals) / (8L * pool.jobs()));
    par::parallel_for(
        pool, 0, num_signals,
        [&](long i) {
          const SignalId id = static_cast<SignalId>(i);
          m.signals[id].loss = signal_loss(ctx, id);
        },
        grain);
  }

  // --- Per-wavelength laser power ----------------------------------------
  std::vector<double>& laser_mw = m.laser_mw;
  laser_mw.assign(std::max(1, design.mapping.wavelengths_used), 0.0);
  for (SignalId id = 0; id < num_signals; ++id) {
    const int wl = design.mapping.routes[id].wavelength;
    if (wl < 0) continue;
    laser_mw[wl] =
        std::max(laser_mw[wl],
                 phys::laser_power_mw(m.signals[id].loss.total_db(),
                                      design.params.loss.receiver_sensitivity_dbm));
  }

  // --- Crosstalk ----------------------------------------------------------
  // Each victim's noise is the sum of its rows, added in ledger order.
  m.xtalk_ledger = compute_noise(ctx, m.signals, laser_mw);
  for (const XtalkContribution& row : m.xtalk_ledger) {
    m.signals[row.victim].noise_mw += row.noise_mw;
  }

  // --- Aggregation ---------------------------------------------------------
  int worst = -1;
  for (SignalId id = 0; id < num_signals; ++id) {
    SignalReport& r = m.signals[id];
    const double il_db = r.loss.total_db();
    const int wl = design.mapping.routes[id].wavelength;
    const double received_mw =
        wl >= 0 ? laser_mw[wl] * phys::db_to_linear(-il_db) : 0.0;
    r.snr_db = r.noise_mw > design.params.crosstalk.noise_floor_mw
                   ? 10.0 * std::log10(received_mw / r.noise_mw)
                   : kNoNoiseSnr;
    if (r.snr_db < design.params.crosstalk.snr_warn_db) {
      obs::diagnose(obs::Severity::kWarning, "analysis.snr_below_threshold",
                    "signal " + std::to_string(id) + " SNR " +
                        std::to_string(r.snr_db) + " dB below the " +
                        std::to_string(design.params.crosstalk.snr_warn_db) +
                        " dB threshold",
                    {{"signal", std::to_string(id)},
                     {"snr_db", std::to_string(r.snr_db)},
                     {"threshold_db",
                      std::to_string(design.params.crosstalk.snr_warn_db)}});
    }

    m.il_worst_db = std::max(m.il_worst_db, il_db);
    if (worst < 0 || r.loss.star_db() > m.signals[worst].loss.star_db()) {
      worst = id;
    }
    if (r.snr_db < kNoNoiseSnr) {
      ++m.noisy_signals;
      m.snr_worst_db = std::min(m.snr_worst_db, r.snr_db);
    }
  }
  if (worst >= 0) {
    const LossBreakdown& b = m.signals[worst].loss;
    m.il_star_worst_db = b.star_db();
    m.worst_path_mm = b.path_mm;
    m.worst_crossings = b.crossings;
  }

  double total_mw = 0.0;
  for (const double p : laser_mw) total_mw += p;
  m.total_power_w =
      total_mw / 1000.0 / design.params.loss.laser_wall_plug_efficiency;

  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("analysis.signals").add(num_signals);
    reg.counter("analysis.xtalk_rows").add(
        static_cast<long long>(m.xtalk_ledger.size()));
    if (shared.ring != nullptr) reg.counter("analysis.substrate_shared").add();
  }
  return m;
}

}  // namespace xring::analysis
