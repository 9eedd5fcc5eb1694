#pragma once

#include <vector>

#include "mapping/opening.hpp"
#include "mapping/wavelength.hpp"
#include "netlist/traffic.hpp"
#include "pdn/pdn.hpp"
#include "phys/parameters.hpp"
#include "ring/tour.hpp"
#include "shortcut/shortcut.hpp"

namespace xring::analysis {

using netlist::NodeId;
using netlist::SignalId;

/// A fully synthesized ring router: everything the loss and crosstalk
/// engines need to evaluate it. Produced by xring::Synthesizer and by the
/// baseline implementations (ORNoC, ORing).
struct RouterDesign {
  const netlist::Floorplan* floorplan = nullptr;
  netlist::Traffic traffic;
  ring::RingGeometry ring;
  shortcut::ShortcutPlan shortcuts;
  mapping::Mapping mapping;
  pdn::PdnResult pdn;
  bool has_pdn = false;
  phys::Parameters params;

  /// Physical length multiplier of ring waveguide `w`: nested copies of the
  /// ring are offset outward by the inter-ring spacing, and offsetting a
  /// simple rectilinear closed curve by d adds exactly 8d to its perimeter
  /// (4 net convex corners x 2d each). Arc lengths scale proportionally.
  double ring_scale(int waveguide) const;
};

/// Itemized insertion loss of one signal path. Units: dB (losses are
/// positive magnitudes), mm, counts. Each SignalReport holds its signal's
/// breakdown, so reports can show where each dB went.
struct LossBreakdown {
  double propagation_db = 0.0;
  double modulator_db = 0.0;
  double drop_db = 0.0;
  double through_db = 0.0;
  double crossing_db = 0.0;
  double bend_db = 0.0;
  double photodetector_db = 0.0;
  double pdn_db = 0.0;      ///< laser → sender feed (0 without PDN)
  double coupler_db = 0.0;  ///< off-chip coupling (0 without PDN)

  double path_mm = 0.0;
  int crossings = 0;
  int through_mrrs = 0;
  int bends = 0;

  /// il*: the on-path router loss, excluding everything before the sender.
  double star_db() const {
    return propagation_db + modulator_db + drop_db + through_db +
           crossing_db + bend_db + photodetector_db;
  }
  /// il: full loss the laser must overcome.
  double total_db() const { return star_db() + pdn_db + coupler_db; }
};

/// The physical mechanism that injected a crosstalk contribution.
enum class XtalkSource {
  kPdnLeak,           ///< comb-PDN crossing leaking CW laser power
  kShortcutCrossing,  ///< shortcut-pair crossing leak into the partner chord
  kCseResidue,        ///< uncoupled CSE drop residue on the inbound chord
  kReceiverResidue,   ///< receiver drop residue (Fig. 5(b) filter absent)
  kRingCrossing,      ///< residual ring-geometry crossing (ablations only)
};

const char* to_string(XtalkSource s);

/// One row of the crosstalk attribution table: `noise_mw` of noise power
/// reached `victim`'s photodetector, injected by `aggressor` (or by the CW
/// laser light in the PDN, aggressor = -1) through `source` at `node`. The
/// rows of one victim sum to its SignalReport::noise_mw — evaluate() forms
/// that total by adding the victim's rows in ledger order.
struct XtalkContribution {
  SignalId victim = -1;
  SignalId aggressor = -1;
  XtalkSource source = XtalkSource::kPdnLeak;
  NodeId node = -1;  ///< injection point of the leak (tap / crossing node)
  double noise_mw = 0.0;
};

/// Per-signal analysis record. The paper's per-signal figures read off
/// `loss`: il = loss.total_db(), il* = loss.star_db() (PDN feed and coupler
/// excluded), L = loss.path_mm, C = loss.crossings.
struct SignalReport {
  LossBreakdown loss;
  double noise_mw = 0.0;  ///< first-order noise power at the receiver
  double snr_db = 0.0;    ///< 10*log10(signal/noise); +inf encoded as
                          ///< kNoNoiseSnr when noise is zero
};

constexpr double kNoNoiseSnr = 1e9;

/// Whole-router evaluation (the columns of Tables I-III).
struct RouterMetrics {
  int wavelengths = 0;          ///< #wl
  int waveguides = 0;
  double il_worst_db = 0.0;     ///< il_w (full loss incl. PDN when present)
  double il_star_worst_db = 0;  ///< il*_w (PDN feed excluded)
  double worst_path_mm = 0.0;   ///< L: path length of the max-loss signal
  int worst_crossings = 0;      ///< C: crossings passed by that signal
  double total_power_w = 0.0;   ///< P: total electrical laser power
  int noisy_signals = 0;        ///< #s
  double snr_worst_db = kNoNoiseSnr;  ///< SNR_w (kNoNoiseSnr if all clean)
  /// Optical output power of each wavelength's laser (mW), sized by the
  /// worst-loss signal on that wavelength: P = 10^((il_w + S)/10).
  std::vector<double> laser_mw;
  std::vector<SignalReport> signals;
  /// Provenance: every crosstalk contribution that reached a photodetector.
  /// A victim's rows sum to its SignalReport::noise_mw.
  std::vector<XtalkContribution> xtalk_ledger;
};

}  // namespace xring::analysis
