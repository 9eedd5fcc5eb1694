#!/usr/bin/env sh
# Full check pass: a sanitizer build (ASan + UBSan) of the whole tree, the
# complete test suite run under it, and the bench regression gate (fresh
# Table I-III runs diffed against bench/baselines/ with `xring_runs diff`).
# Usage:
#
#   tools/run_checks.sh [build-dir]       # default: build-sanitize
#
# The sanitizer build lives in its own directory so it never perturbs the
# regular `build/` tree.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo/build-sanitize"}

cmake -B "$build_dir" -S "$repo" -DXRING_SANITIZE=address,undefined
cmake --build "$build_dir" -j
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

# Bench regression gate: quality metrics (losses, powers, solver counts)
# must match the committed baselines exactly; wall times get a wide berth
# (sanitizers and CI machines are slow — only order-of-magnitude growth
# fails). Update the baselines intentionally via docs/OBSERVABILITY.md's
# "updating bench baselines" workflow.
echo "== bench regression gate =="
# Any pool size: every gated key, the mapping.* gauges (per-run maxima)
# included, is the same at every job count.
(cd "$build_dir/bench" &&
  ./table1_routers_no_pdn > /dev/null &&
  ./table2_ornoc_vs_xring > /dev/null &&
  ./table3_oring_vs_xring > /dev/null)
gate() {  # gate TABLE [xring_runs diff options...]
  table=$1
  shift
  "$build_dir/tools/xring_runs" diff \
    "$repo/bench/baselines/BENCH_$table.json" \
    "$build_dir/bench/BENCH_$table.json" --quiet "$@"
}
gate table1 --time-tolerance 25
# The mapping.* counters (waveguides, wavelengths, relocations, openings,
# and the serial search's probe counts) are the occupancy index's
# bit-identical contract with the brute-force Step 3: they must match the
# committed baselines EXACTLY, with no time escape hatch.
for table in table1 table2 table3; do
  gate "$table" --only-prefix mapping. --rel-tolerance 0
done
# Solver quality gate: the MILP's answers (milp.incumbent.last, node and
# lazy-cut counts) and the realized ring (ring.crossings, ring.length_um)
# must be byte-identical to the baseline. Pivot-path counters (lp.pivots,
# lp.iterations, lp.refactorizations, milp.warm_pivots, ...) float — they
# are classified solver-internal by the gate — so an LP-kernel change
# passes here exactly when it changes how the answer is reached but never
# the answer.
gate table1 --only-prefix milp. --rel-tolerance 0
gate table1 --only-prefix ring. --rel-tolerance 0
# Evaluation determinism gate: the indexed analysis engine's counters
# (analysis.signals, analysis.xtalk_rows) are its bit-identical contract
# with the brute-force reference — exact match, like mapping.* above. The
# ORNoC/ORing baselines of Tables II-III hold nearly all of the crosstalk
# rows (XRing's Table I designs emit none), so every table is gated.
for table in table1 table2 table3; do
  gate "$table" --only-prefix analysis. --rel-tolerance 0
done
# Table cells, XRing's and the ORNoC/ORing baselines' alike, exactly.
# The tables' .T wall times ride along under these prefixes; give them the
# same wide sanitizer berth as the whole-file gate (a Release-recorded
# baseline vs an ASan run exceeds the default 3x on sub-0.1 s entries).
for table in table1 table2 table3; do
  gate "$table" --only-prefix "$table." --rel-tolerance 0 --time-tolerance 25
done
echo "bench gate OK"

# ThreadSanitizer pass over the concurrent substrate (its own build tree —
# TSan cannot share objects with ASan). Oversubscribed via XRING_JOBS so
# races surface even on few-core machines.
echo "== thread sanitizer =="
tsan_dir="$repo/build-tsan"
cmake -B "$tsan_dir" -S "$repo" -DXRING_SANITIZE=thread
cmake --build "$tsan_dir" -j
(cd "$tsan_dir/tests" &&
  XRING_JOBS=8 ./test_par &&
  XRING_JOBS=8 ./test_milp_bnb &&
  XRING_JOBS=8 ./test_milp_scale &&
  XRING_JOBS=8 ./test_xring_synthesizer &&
  XRING_JOBS=8 ./test_mapping_index &&
  XRING_JOBS=8 ./test_mapping_fastpath &&
  XRING_JOBS=8 ./test_analysis_fastpath &&
  XRING_JOBS=8 ./test_obs_context &&
  XRING_JOBS=8 ./test_obs &&
  XRING_JOBS=8 ./test_obs_profile)
echo "tsan OK"
