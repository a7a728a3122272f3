#!/usr/bin/env python3
"""Perf-regression gate over the bench metrics store.

Every perf source CI produces is normalised into ONE schema — a SQLite
`metrics` table of (file, name, metric, value, direction) rows:

* google-benchmark JSON (BENCH_engine.json, BENCH_hotpath.json):
  per-benchmark items_per_second (higher is better) when present, else
  real_time (lower is better).
* micro_sampling JSON (BENCH_sampling.json): median_speedup /
  median_speedup_cmp (higher) plus per-run sampled wall seconds (lower).
* sweep JSON-lines rows (*.jsonl, e.g. a merge_tool output): host
  throughput sim_instructions_per_second per config/workload (higher).

The fresh run's metrics are always written to --db (default
<fresh-dir>/bench.sqlite) so the uploaded artifact IS the next baseline.
Comparison, preserving the warn-without-baseline contract:

* baseline dir holds a bench.sqlite -> store-vs-store comparison (the gate)
* no baseline store                 -> warn and exit 0; the fresh
  artifact becomes the baseline
* a benchmark the baseline store lacks (a newly added case) -> warn and
  skip it; it is gated from the next run on

A metric regressing beyond --threshold (default 15%) in its bad direction
fails the gate (exit 1).
"""

import argparse
import json
import os
import sqlite3
import sys

SCHEMA = """
CREATE TABLE IF NOT EXISTS metrics (
  file TEXT NOT NULL,      -- source file name (BENCH_engine.json, ...)
  name TEXT NOT NULL,      -- benchmark / config/workload identifier
  metric TEXT NOT NULL,    -- items_per_second, sampled_seconds, ...
  value REAL NOT NULL,
  direction TEXT NOT NULL CHECK (direction IN ('higher', 'lower')),
  PRIMARY KEY (file, name, metric)
);
"""


def pct(new, old):
    return 100.0 * (new - old) / old if old else 0.0


# ---------------------------------------------------------------------------
# Extraction: every source shape -> (name, metric, value, direction) rows.
# ---------------------------------------------------------------------------

def extract_google_benchmark(doc):
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        if "items_per_second" in bench:
            yield bench["name"], "items_per_second", \
                bench["items_per_second"], "higher"
        elif "real_time" in bench:
            yield bench["name"], "real_time", bench["real_time"], "lower"


def extract_sampling(doc):
    for metric in ("median_speedup", "median_speedup_cmp"):
        if doc.get(metric, 0) > 0:
            yield "micro_sampling", metric, doc[metric], "higher"
    for key in ("runs", "cmp_runs"):
        for run in doc.get(key, []):
            seconds = run.get("sampled_seconds", 0)
            if seconds > 0:
                yield (f"{run['config']}/{run['workload']}",
                       "sampled_seconds", seconds, "lower")


def extract_sweep_rows(path):
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("status", "ok") != "ok":
                continue
            rate = row.get("sim_instructions_per_second", 0)
            if rate > 0:
                name = (f"{row['config']}/{row['workload']}"
                        f"/r{row.get('replicate', 0)}")
                yield name, "sim_instructions_per_second", rate, "higher"


def extract_file(path):
    """Rows for one source file, dispatched on shape."""
    if path.endswith(".jsonl"):
        yield from extract_sweep_rows(path)
        return
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" in doc:
        yield from extract_google_benchmark(doc)
    else:
        yield from extract_sampling(doc)


# ---------------------------------------------------------------------------
# Store plumbing.
# ---------------------------------------------------------------------------

def write_store(db_path, named_rows):
    db = sqlite3.connect(db_path)
    with db:
        db.executescript(SCHEMA)
        db.execute("DELETE FROM metrics")
        db.executemany("INSERT INTO metrics VALUES (?, ?, ?, ?, ?)",
                       named_rows)
    return db


def find_baseline(baseline_dir, filename):
    """The baseline file, looking one level deep too: `gh run download`
    without -n unpacks artifacts into subdirectories."""
    if not os.path.isdir(baseline_dir):
        return None
    direct = os.path.join(baseline_dir, filename)
    if os.path.exists(direct):
        return direct
    for entry in sorted(os.listdir(baseline_dir)):
        nested = os.path.join(baseline_dir, entry, filename)
        if os.path.exists(nested):
            return nested
    return None


def missing_from(fresh_rows, base_rows):
    """Fresh metrics with no baseline value (new benchmark names)."""
    base = {(f, n, m) for f, n, m, _, _ in base_rows}
    return [(f, n, m) for f, n, m, _, _ in fresh_rows
            if (f, n, m) not in base]


def regressions_between(fresh_rows, base_rows, threshold):
    base = {(f, n, m): v for f, n, m, v, _ in base_rows}
    for file, name, metric, new, direction in fresh_rows:
        old = base.get((file, name, metric))
        if old is None or old <= 0:
            continue
        bad = (new < old * (1.0 - threshold) if direction == "higher"
               else new > old * (1.0 + threshold))
        if bad:
            yield file, name, metric, old, new


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding the main-branch artifact")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory holding this run's perf sources")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fractional regression that fails (default .15)")
    parser.add_argument("--db", default=None,
                        help="metrics store to write (default "
                             "<fresh-dir>/bench.sqlite)")
    parser.add_argument("files", nargs="*",
                        help="source file names (default: BENCH_*.json in "
                             "--fresh-dir)")
    args = parser.parse_args()

    names = args.files or sorted(
        f for f in os.listdir(args.fresh_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not names:
        print("bench_compare: no perf sources in", args.fresh_dir)
        return 0

    # Extract the fresh run into the store, unconditionally: the uploaded
    # bench.sqlite is the next run's baseline even if this gate fails.
    fresh_rows = []
    for name in names:
        path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(path):
            print(f"bench_compare: {name}: missing fresh file, skipping")
            continue
        fresh_rows.extend((name, bench, metric, value, direction)
                          for bench, metric, value, direction
                          in extract_file(path))
    db_path = args.db or os.path.join(args.fresh_dir, "bench.sqlite")
    write_store(db_path, fresh_rows)
    print(f"bench_compare: {len(fresh_rows)} metrics from "
          f"{len(names)} source(s) -> {db_path}")

    base_store = find_baseline(args.baseline_dir, "bench.sqlite")
    if base_store is None:
        # Nothing to gate against: the contract is warn, not red.
        print("bench_compare: no baseline store from main yet - warn-only "
              "(the fresh artifact becomes the baseline)")
        return 0
    db = sqlite3.connect(base_store)
    base_rows = db.execute(
        "SELECT file, name, metric, value, direction "
        "FROM metrics").fetchall()
    print(f"bench_compare: baseline store {base_store} "
          f"({len(base_rows)} metrics)")

    missing = missing_from(fresh_rows, base_rows)
    for file, name, metric in missing:
        print(f"bench_compare: warning: {file} {name}: {metric} has no "
              f"baseline value - not gated this run")
    failures = list(regressions_between(fresh_rows, base_rows,
                                        args.threshold))
    for file, name, metric, old, new in failures:
        print(f"REGRESSION {file} {name}: {metric} "
              f"{old:.4g} -> {new:.4g} ({pct(new, old):+.1f}%)")
    if failures:
        print(f"bench_compare: {len(failures)} regression(s) beyond "
              f"{100 * args.threshold:.0f}% - failing the gate")
        return 1
    print(f"bench_compare: {len(fresh_rows) - len(missing)} metric(s) "
          f"compared, no regression beyond {100 * args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
