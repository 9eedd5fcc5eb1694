#pragma once

#include <functional>

#include "xring/synthesizer.hpp"

namespace xring {

/// What a #wl sweep optimizes for. The paper picks, per router and network,
/// "the setting of #wl with the minimum power and maximum SNR" (Tables
/// II/III show both when they differ).
enum class SweepGoal { kMinPower, kMaxSnr, kMinWorstLoss };

/// A synthesis routine evaluated at one #wl setting; sweeps are generic so
/// the baselines (ORNoC/ORing) reuse them.
using SynthesisAtWl = std::function<SynthesisResult(int max_wavelengths)>;

struct SweepResult {
  int best_wl = 0;
  SynthesisResult result;
  int settings_tried = 0;
  /// Cumulative work time: the sum of every tried setting's own `seconds`.
  /// With a parallel sweep this exceeds the elapsed time.
  double seconds = 0.0;
  /// Wall-clock time of the whole sweep call. For sweep_xring this includes
  /// the shared ring construction (which `seconds` already folds into each
  /// setting via run_with_ring, so the two are *not* nested measures).
  double wall_seconds = 0.0;
};

/// Tries every #wl in [min_wl, max_wl] and keeps the best setting for the
/// goal. Ties go to the smaller #wl (cheaper laser bank).
///
/// Settings are evaluated concurrently on the global `par` pool (--jobs /
/// XRING_JOBS); the winner is then chosen by a serial ordered reduction over
/// ascending #wl, so the selected design is bit-identical to the serial
/// sweep at any thread count. `synthesize` must therefore be safe to call
/// concurrently (the XRing pipeline is: it shares only immutable state).
SweepResult sweep(const SynthesisAtWl& synthesize, SweepGoal goal, int min_wl,
                  int max_wl);

/// Convenience sweep over the XRing synthesizer itself, reusing one ring
/// construction AND one SweepCache (shortcut plan, mapping arc table and
/// evaluation ring substrate) across all settings — none of Step 1, Step 2,
/// the arc geometry of Step 3, or the realized ring depends on #wl.
SweepResult sweep_xring(const Synthesizer& synthesizer,
                        const SynthesisOptions& base, SweepGoal goal,
                        int min_wl, int max_wl);

}  // namespace xring
