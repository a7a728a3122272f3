#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny run length (about 15 s).

Checks, for every workload in BENCHMARK.json:
  * an untraced run prints every end-to-end metric and a traced run every
    per-layer metric, each with the unit BENCHMARK.json gives, and both
    report correct results with no failed job;
  * two invocations with the same seed print the same sim_digest, and a
    different seed prints a different one;
  * each layer's counters are non-zero only on the workload that isolates
    it (dnuca/noc on dnuca_mesh, coh on cmp_sharing, exp/ckpt/sample on
    sweep_sampled).

Usage (from the repository root): python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.02"

# Layer prefix -> the only workload on which its counters may be non-zero.
ISOLATED = {
    "dnuca.": "dnuca_mesh",
    "noc.": "dnuca_mesh",
    "coh.": "cmp_sharing",
    "exp.": "sweep_sampled",
    "ckpt.": "sweep_sampled",
    "sample.": "sweep_sampled",
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest "))
    return json.loads(lines[-1]), digest


def check_metrics(result, expected, where, errors):
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}")
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            errors.append(f"{where}: metric {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{where}: metric {m['name']} has unit "
                          f"{got[m['name']]['unit']}, expected {m['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in (x["name"] for x in bench["workloads"]):
        plain, digest = run(w, 7, 0)
        check_metrics(plain, bench["end_to_end"], f"{w} trace 0", errors)
        again = run(w, 7, 0)[1]
        other = run(w, 8, 0)[1]
        if again != digest:
            errors.append(f"{w}: same seed gave digests {digest} and {again}")
        if other == digest:
            errors.append(f"{w}: seeds 7 and 8 gave the same digest {digest}")

        traced, traced_digest = run(w, 7, 1)
        check_metrics(traced, bench["per_layer"], f"{w} trace 1", errors)
        if traced_digest != digest:
            errors.append(f"{w}: traced run digest {traced_digest} differs "
                          f"from untraced {digest}")
        for name, m in traced["metrics"].items():
            home = next((h for p, h in ISOLATED.items()
                         if name.startswith(p)), None)
            if home is not None and (m["value"] != 0) != (home == w):
                errors.append(f"{w}: {name} = {m['value']} breaks layer "
                              f"isolation (home workload {home})")
        print(f"{w}: ok digest {digest}", flush=True)

    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
