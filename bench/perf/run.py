#!/usr/bin/env python3
"""Builds xring_perf from this checkout and runs one benchmark workload.

Run from the repository root:

    python3 bench/perf/run.py --workload paper --seed 1 --seconds 8 --trace 0

--trace 0 runs `xring_perf run` (end-to-end metrics, tracing off); --trace 1
runs `xring_perf trace` (per-layer metrics). The last line of output is the
result JSON. The build lives in .bench_build/perf; build output goes to
stderr. Optional: --out FILE keeps a `run` result for `xring_perf compare`,
--trace-dir DIR places layers.json and trace.json.
"""

import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    build = os.path.join(root, ".bench_build", "perf")
    jobs = str(min(4, os.cpu_count() or 1))
    # Build output is diagnostics: keep stdout for the result line.
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "bench", "perf"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs, "--target", "xring_perf"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            print("xring_perf build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    cmd = [os.path.join(build, "xring_perf"), "trace" if args.trace else "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.out:
        cmd += ["--out", args.out]
    if args.trace_dir:
        cmd += ["--trace-dir", args.trace_dir]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
