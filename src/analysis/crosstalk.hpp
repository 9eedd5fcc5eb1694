#pragma once

#include "analysis/loss.hpp"

namespace xring::analysis {

/// First-order crosstalk: every deposit of noise power on a signal's
/// photodetector, on its own wavelength, as one XtalkContribution row
/// (victim, aggressor, source mechanism, injection node, power).
///
/// Modelled sources (per Nikdast et al. [14], first order only):
///  * comb-PDN crossings leaking continuous-wave laser power (all used
///    wavelengths) into the crossed ring waveguide,
///  * signals passing a shortcut-pair crossing leaking into the partner
///    shortcut's waveguides,
///  * the uncoupled residue of a CSE drop continuing to the chord's far end,
///  * residual ring-geometry crossings (only present in degraded ablation
///    constructions) leaking between arcs of the same waveguide.
///
/// Leaked power travels in the waveguide's transmission direction and is
/// absorbed by the first wavelength-matched receiver; openings terminate it.
/// Residue noise at photodetector drop-MRRs is removed by the MRR+terminator
/// of Fig. 5(b) and therefore never contributes, exactly as the paper
/// assumes.
///
/// `signals` supplies each aggressor's loss breakdown; `laser_mw` is the
/// per-wavelength laser power. The rows come in a fixed order (PDN taps,
/// then aggressors by signal id) that does not depend on the thread count.
std::vector<XtalkContribution> compute_noise(
    const AnalysisContext& ctx, const std::vector<SignalReport>& signals,
    const std::vector<double>& laser_mw);

}  // namespace xring::analysis
