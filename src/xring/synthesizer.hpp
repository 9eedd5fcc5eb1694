#pragma once

#include <mutex>
#include <optional>

#include "analysis/evaluate.hpp"
#include "mapping/occupancy.hpp"
#include "mapping/opening.hpp"
#include "ring/builder.hpp"

namespace xring {

/// All knobs of the four-step XRing flow. Defaults reproduce the paper's
/// configuration; the ablation benches flip individual features off.
struct SynthesisOptions {
  ring::RingBuildOptions ring;
  shortcut::ShortcutOptions shortcuts;
  mapping::MappingOptions mapping;
  mapping::OpeningOptions openings;
  /// Synthesize the tree PDN (Step 4). Table I compares routers without
  /// PDNs, Tables II/III with.
  bool build_pdn = true;
  /// Step 4 variant: kTree is XRing's crossing-free design; kComb is the
  /// baseline design of [17] whose radials cross the ring waveguides —
  /// the ORing baseline's PDN, and used by the ablation benches to quantify
  /// what the openings buy.
  enum class PdnStyle { kTree, kComb };
  PdnStyle pdn_style = PdnStyle::kTree;
  phys::Parameters params = phys::Parameters::oring();
  /// Demand set to serve. Defaults to the paper's all-to-all workload;
  /// partial patterns (permutation, hotspot, ...) are accepted too.
  std::optional<netlist::Traffic> traffic;
};

/// Everything a caller gets back: the synthesized design, its evaluation,
/// and per-step diagnostics.
struct SynthesisResult {
  analysis::RouterDesign design;
  analysis::RouterMetrics metrics;
  ring::RingBuildResult ring_stats;
  mapping::OpeningStats opening_stats;
  /// Wall-clock synthesis time (the tables' T), derived from the root
  /// `synth` observability span. Both entry points report a full Step 1-4
  /// figure: `run_with_ring` adds the prebuilt ring's build time.
  double seconds = 0.0;
};

/// Per-sweep shared state: everything in Steps 2-3 that depends on the
/// ring, floorplan, traffic, and shortcut options but NOT on
/// `mapping.max_wavelengths`. A `#wl` sweep builds one instance and feeds
/// it to every setting instead of re-deriving it per probe:
///   - the Step-2 shortcut plan (previously rebuilt once per setting),
///   - the Step-3 arc table (each signal's hop interval per direction,
///     stored once; see mapping/occupancy.hpp),
///   - the evaluation `RingSubstrate` (realized hop routes, crossing
///     structure and arc prefix sums; see analysis/substrate.hpp).
/// Immutable after construction and shared read-only across the parallel
/// sweep's threads.
struct SweepCache {
  shortcut::ShortcutPlan shortcuts;
  mapping::ArcTable arcs;
  analysis::RingSubstrate substrate;
  /// Wall time spent building the cache; folded into each setting's
  /// reported `seconds` the same way the prebuilt ring's build time is.
  double seconds = 0.0;
};

/// The XRing synthesis pipeline (paper Sec. III):
///   1. ring waveguide construction (MILP + sub-cycle merge),
///   2. shortcut construction,
///   3. signal mapping and ring waveguide opening,
///   4. tree PDN design.
/// The returned design is immediately evaluated for losses, laser power and
/// crosstalk so callers can inspect or tabulate it.
class Synthesizer {
 public:
  explicit Synthesizer(const netlist::Floorplan& floorplan);

  SynthesisResult run(const SynthesisOptions& options = {}) const;

  /// Step 1 is independent of #wl settings; callers sweeping #wl reuse one
  /// prebuilt ring through this entry point. `cache`, when given, must have
  /// been built by make_sweep_cache from the same ring and the same options
  /// (any `mapping.max_wavelengths` — that is the one knob it is independent
  /// of); results are bit-identical with or without it.
  SynthesisResult run_with_ring(const SynthesisOptions& options,
                                const ring::RingBuildResult& ring,
                                const SweepCache* cache = nullptr) const;

  /// Builds the #wl-independent shared state (shortcut plan, arc table and
  /// ring substrate) once, for reuse across every setting of a sweep.
  SweepCache make_sweep_cache(const SynthesisOptions& options,
                              const ring::RingBuildResult& ring) const;

  const netlist::Floorplan& floorplan() const { return *floorplan_; }

  /// Step-1 conflict oracle, built on first use. Up to
  /// `ConflictOracle::kDenseNodeLimit` nodes its all-pairs conflict table
  /// is Θ(n⁴) predicate evaluations and Θ(n⁴) bits — 8.3 MB at n = 128,
  /// built on the global pool in ~0.08 s at 4 jobs (~0.25 s at 1) — but only
  /// ring *construction* reads it. Callers entering through
  /// `run_with_ring` (prebuilt or fixed rings: sweeps, the scaling
  /// profile, ablations) never pay for it. A thread that waits on the
  /// build helps with other pool work, so call this once before running
  /// `run` of one Synthesizer from several tasks of the global pool (as
  /// sweep_xring builds its ring first): such a task, run by the building
  /// thread, would re-enter the once-only initialization.
  const ring::ConflictOracle& oracle() const {
    std::call_once(oracle_once_, [&] { oracle_.emplace(*floorplan_); });
    return *oracle_;
  }

 private:
  /// Steps 2-4 + evaluation from an already-built ring (no root span; both
  /// public entry points wrap this in their own `synth` span).
  SynthesisResult synthesize_from_ring(const SynthesisOptions& options,
                                       const ring::RingBuildResult& ring,
                                       const SweepCache* cache) const;

  const netlist::Floorplan* floorplan_;
  mutable std::optional<ring::ConflictOracle> oracle_;
  mutable std::once_flag oracle_once_;
};

}  // namespace xring
