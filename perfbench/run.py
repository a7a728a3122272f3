#!/usr/bin/env python3
"""Build the simulator benchmark (lnbench) from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lnuca_core --seed 1 --seconds 10 --trace 0

Workloads: lnuca_core, dnuca_mesh, cmp_sharing, sweep_sampled (see
perfbench/README.md). lnbench's output is passed through unchanged; its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Build products and run files go to $CARGO_TARGET_DIR, or to
.bench_build/ under the repository root when that is unset.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lnuca_core", "dnuca_mesh", "cmp_sharing", "sweep_sampled")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    """Configure (once) and build lnbench; build logs go to stderr."""
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(3, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "lnbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run-length multiplier (smoke tests use < 1)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "hier", "system.h")):
        print("perfbench: simulator sources (src/) not found beside the "
              "benchmark", file=sys.stderr)
        return 2

    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    sys.stdout.flush()
    return subprocess.run([exe, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--scale", str(args.scale),
                           "--work-dir", os.path.join(out, "work")]).returncode


if __name__ == "__main__":
    sys.exit(main())
