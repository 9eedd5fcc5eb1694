#!/usr/bin/env sh
# Full check pass: a sanitizer build (ASan + UBSan) of the whole tree, the
# complete test suite run under it, the bench regression gate (fresh
# Table I-III runs diffed against bench/baselines/ with `xring_runs diff`),
# and a ThreadSanitizer build running the concurrent suites.
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

# Bench regression gate: every quality metric of every table must match the
# committed baselines exactly. That covers the table cells (XRing's and the
# ORNoC/ORing baselines' alike), the mapping.* counters (the occupancy
# index's bit-identical contract with the brute-force Step 3), the
# analysis.* counters (the indexed evaluation engine's), and the solver's
# answers and work: milp.*, ring.* and the lp.* pivot counters, so a change
# that moves the search must re-baseline on purpose. Wall times, the .T
# table cells included, get a wide berth (sanitizers and CI machines are
# slow; only order-of-magnitude growth fails). Update the baselines
# intentionally via docs/OBSERVABILITY.md's "updating bench baselines"
# workflow.
echo "== bench regression gate =="
# Any pool size: every gated key, the mapping.* gauges (per-run maxima)
# included, is the same at every job count.
(cd "$build_dir/bench" &&
  ./table1_routers_no_pdn > /dev/null &&
  ./table2_ornoc_vs_xring > /dev/null &&
  ./table3_oring_vs_xring > /dev/null)
for table in table1 table2 table3; do
  "$build_dir/tools/xring_runs" diff \
    "$repo/bench/baselines/BENCH_$table.json" \
    "$build_dir/bench/BENCH_$table.json" --quiet \
    --rel-tolerance 0 --time-tolerance 25
done
echo "bench gate OK"

# ThreadSanitizer pass over the concurrent substrate, in its own build tree
# (TSan cannot share objects with ASan): the pool unit tests, the MILP
# search, Step 1's pool work (the conflict table's row fill and block
# transposes, the all-starts heuristic), the full synthesizer (parallel
# sweep + analysis fan-out), the indexed-analysis differential tests
# (parallel deposit-replay vs the serial reference), the scoped-context
# isolation tests (two concurrent syntheses sharing one pool must record
# disjoint, exact per-context metrics), and the obs suites whose raw
# threads and phase sampler record through installed contexts. Oversubscribed via XRING_JOBS so races surface even on few-core
# machines. This is the only TSan suite list; CI runs it through this
# script.
echo "== thread sanitizer =="
tsan_dir="$repo/build-tsan"
cmake -B "$tsan_dir" -S "$repo" -DXRING_SANITIZE=thread
cmake --build "$tsan_dir" -j
(cd "$tsan_dir/tests" &&
  XRING_JOBS=8 ./test_par &&
  XRING_JOBS=8 ./test_milp_bnb &&
  XRING_JOBS=8 ./test_milp_scale &&
  XRING_JOBS=8 ./test_ring_construction &&
  XRING_JOBS=8 ./test_xring_synthesizer &&
  XRING_JOBS=8 ./test_mapping_index &&
  XRING_JOBS=8 ./test_mapping_fastpath &&
  XRING_JOBS=8 ./test_analysis_fastpath &&
  XRING_JOBS=8 ./test_obs_context &&
  XRING_JOBS=8 ./test_obs &&
  XRING_JOBS=8 ./test_obs_profile)
echo "tsan OK"
