#!/usr/bin/env python3
"""Queryable results store: sweep JSON-lines -> SQLite.

Subcommands:

  ingest     load one or more JSONL result files (shard outputs or a
             merge_tool merge) into the `runs` table, keyed by
             (manifest hash, flat index). Re-ingesting a row replaces it.
             per_core_ipc is unnested into its own table, one row per core.
  speedup    (re)create the `speedup` view — every ok run joined against
             the named baseline config on the same (manifest, workload,
             replicate) — and print it.
  aggregate  mean / median / 95% CI of a metric, grouped by any column set
             (default: config).
  query      raw SQL passthrough, rows as TSV with a header line.
  digest     row count and sha256 of each JSONL file over every field
             except the host-timing trio; exits 1 when the files disagree
             (or, with --rows N, when any file does not hold N rows).

Only the Python standard library is used (sqlite3, json, subprocess).
`ingest` takes the `runs` columns from `merge_tool --print-schema`, which
prints them from the simulator's run_result field table: one typed column
per JSONL key (the CSV columns), energy parts as energy_<part>_j, arrays
as JSON text. per_core_ipc is also unnested into its own table. Seeds are
decimal TEXT: they are full-range 64-bit values, which SQLite's signed
INTEGER cannot hold. The merge_tool binary is $LNUCA_MERGE_TOOL, or
build/tools/merge_tool under the repository root. The other subcommands
read the columns back from the database; `digest` needs no binary.
"""

import argparse
import hashlib
import json
import math
import os
import sqlite3
import statistics
import subprocess
import sys

# The only non-deterministic row fields: they measure the host, not the
# simulation, so row digests leave them out.
HOST_TIMING_KEYS = ("host_seconds", "sim_cycles_per_second",
                    "sim_instructions_per_second")

def merge_tool_path():
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "build", "tools", "merge_tool")
    return os.environ.get("LNUCA_MERGE_TOOL", default)


def store_columns():
    """[(column, sql type, json path)] from `merge_tool --print-schema`."""
    tool = merge_tool_path()
    try:
        out = subprocess.run([tool, "--print-schema"], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as err:
        raise SystemExit(f"results_db: cannot read the store schema from "
                         f"'{tool}' ({err}); build merge_tool or set "
                         f"LNUCA_MERGE_TOOL")
    return [tuple(line.split("\t")) for line in out.splitlines() if line]


def open_db(path, columns=None):
    """Open the store; with `columns`, create its tables first."""
    db = sqlite3.connect(path)
    if columns is not None:
        db.executescript(f"""
            CREATE TABLE IF NOT EXISTS runs (
              {", ".join(f"{name} {typ}" for name, typ, _ in columns)},
              PRIMARY KEY (manifest, flat)
            );
            CREATE TABLE IF NOT EXISTS per_core_ipc (
              manifest TEXT NOT NULL,
              flat INTEGER NOT NULL,
              core INTEGER NOT NULL,
              ipc REAL NOT NULL,
              PRIMARY KEY (manifest, flat, core)
            );
            CREATE INDEX IF NOT EXISTS runs_by_config
              ON runs (config, workload);""")
    return db


def run_columns(db):
    """Column names of the store's `runs` table (empty before ingest)."""
    return {row[1] for row in db.execute("PRAGMA table_info(runs)")}


def row_values(record, columns):
    values = {}
    for name, typ, path in columns:
        value = record
        for part in path.split("."):
            value = value.get(part) if isinstance(value, dict) else None
        if isinstance(value, list):
            value = json.dumps(value)
        elif isinstance(value, bool):
            value = int(value)
        elif typ == "TEXT":
            # Absent optional keys (manifest, error) store as "".
            value = "" if value is None else str(value)
        values[name] = value
    return values


def cmd_ingest(args):
    columns = store_columns()
    db = open_db(args.db, columns)
    names = [name for name, _, _ in columns]
    insert = (f"INSERT INTO runs ({', '.join(names)}) "
              f"VALUES ({', '.join(':' + n for n in names)})")
    total = 0
    with db:
        for path in args.files:
            rows = 0
            with open(path) as f:
                for line_no, line in enumerate(f, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        print(f"results_db: {path} line {line_no}: "
                              f"undecodable row (torn tail? merge first)",
                              file=sys.stderr)
                        return 1
                    values = row_values(record, columns)
                    key = (values["manifest"], values["flat"])
                    db.execute("DELETE FROM runs WHERE manifest = ? AND "
                               "flat = ?", key)
                    db.execute("DELETE FROM per_core_ipc WHERE manifest = ? "
                               "AND flat = ?", key)
                    db.execute(insert, values)
                    db.executemany(
                        "INSERT INTO per_core_ipc VALUES (?, ?, ?, ?)",
                        [(key[0], key[1], core, ipc) for core, ipc in
                         enumerate(record.get("per_core_ipc", []))])
                    rows += 1
            print(f"results_db: ingested {rows} rows from {path}")
            total += rows
    print(f"results_db: {total} rows total, db at {args.db}")
    return 0


def cmd_speedup(args):
    db = open_db(args.db)
    metric = args.metric
    if metric not in run_columns(db):
        print(f"results_db: unknown metric column '{metric}'",
              file=sys.stderr)
        return 1
    baseline = args.baseline.replace("'", "''")
    with db:
        db.execute("DROP VIEW IF EXISTS speedup")
        # A view cannot take parameters, so the baseline name is baked in;
        # re-running `speedup` with another baseline rebuilds it.
        db.execute(f"""
            CREATE VIEW speedup AS
            SELECT r.manifest, r.config, r.workload, r.replicate,
                   r.{metric} AS value, b.{metric} AS baseline_value,
                   CASE WHEN b.{metric} != 0
                        THEN 1.0 * r.{metric} / b.{metric} END AS speedup
            FROM runs r
            JOIN runs b ON b.manifest = r.manifest
                       AND b.workload = r.workload
                       AND b.replicate = r.replicate
                       AND b.config = '{baseline}'
            WHERE r.config != '{baseline}'
              AND r.status = 'ok' AND b.status = 'ok'
        """)
    rows = db.execute("SELECT config, workload, replicate, value, "
                      "baseline_value, speedup FROM speedup "
                      "ORDER BY config, workload, replicate").fetchall()
    if not rows:
        print(f"results_db: no rows to compare against baseline "
              f"'{args.baseline}' (is the name spelled like the config "
              f"column?)", file=sys.stderr)
        return 1
    print(f"config\tworkload\treplicate\t{metric}\tbaseline\tspeedup")
    for config, workload, replicate, value, base, speedup in rows:
        sp = f"{speedup:.4f}" if speedup is not None else "n/a"
        print(f"{config}\t{workload}\t{replicate}\t{value:.6g}\t"
              f"{base:.6g}\t{sp}")
    return 0


def cmd_aggregate(args):
    db = open_db(args.db)
    columns = run_columns(db)
    groups = [g.strip() for g in args.group.split(",") if g.strip()]
    if args.metric not in columns or not all(g in columns for g in groups):
        print("results_db: --metric/--group must name runs columns",
              file=sys.stderr)
        return 1
    select = ", ".join(groups)
    rows = db.execute(
        f"SELECT {select}, {args.metric} FROM runs "
        f"WHERE status = 'ok' AND {args.metric} IS NOT NULL").fetchall()
    buckets = {}
    for row in rows:
        buckets.setdefault(row[:-1], []).append(row[-1])
    print("\t".join(groups) + "\tn\tmean\tmedian\tci95")
    for key in sorted(buckets):
        values = buckets[key]
        n = len(values)
        mean = statistics.fmean(values)
        median = statistics.median(values)
        # Normal-approximation 95% CI of the mean; 0 for a single sample.
        ci95 = (1.96 * statistics.stdev(values) / math.sqrt(n)
                if n > 1 else 0.0)
        print("\t".join(str(k) for k in key) +
              f"\t{n}\t{mean:.6g}\t{median:.6g}\t{ci95:.6g}")
    return 0


def cmd_query(args):
    db = open_db(args.db)
    cursor = db.execute(args.sql)
    if cursor.description:
        print("\t".join(col[0] for col in cursor.description))
        for row in cursor:
            print("\t".join("" if v is None else str(v) for v in row))
    db.commit()
    return 0


def row_digest(path):
    """(row count, sha256 hex) over the rows with the host-timing trio
    dropped and keys sorted, so key order and host speed never matter."""
    rows = []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            for key in HOST_TIMING_KEYS:
                record.pop(key, None)
            rows.append(json.dumps(record, sort_keys=True))
    return len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()


def cmd_digest(args):
    digests = [row_digest(path) for path in args.files]
    for path, (rows, sha) in zip(args.files, digests):
        print(f"{rows}\t{sha}\t{path}")
    if args.rows is not None and any(rows != args.rows
                                     for rows, _ in digests):
        print(f"results_db: expected {args.rows} rows in every file",
              file=sys.stderr)
        return 1
    if len(set(digests)) > 1:
        print("results_db: row digests differ", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load JSONL result files")
    p.add_argument("--db", required=True, help="SQLite database path")
    p.add_argument("files", nargs="+", help="JSONL files to ingest")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("speedup",
                       help="(re)create + print the speedup view")
    p.add_argument("--db", required=True)
    p.add_argument("--baseline", required=True,
                   help="baseline config name (the `config` column value)")
    p.add_argument("--metric", default="ipc",
                   help="metric column to ratio (default: ipc)")
    p.set_defaults(fn=cmd_speedup)

    p = sub.add_parser("aggregate", help="mean/median/ci95 per group")
    p.add_argument("--db", required=True)
    p.add_argument("--group", default="config",
                   help="comma-separated group columns (default: config)")
    p.add_argument("--metric", default="ipc")
    p.set_defaults(fn=cmd_aggregate)

    p = sub.add_parser("query", help="raw SQL passthrough (TSV output)")
    p.add_argument("--db", required=True)
    p.add_argument("sql", help="SQL statement to run")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("digest",
                       help="row count + sha256 without host timing")
    p.add_argument("--rows", type=int,
                   help="fail unless every file holds this many rows")
    p.add_argument("files", nargs="+", help="JSONL files to digest")
    p.set_defaults(fn=cmd_digest)

    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream `head` closed the pipe; that is not an error.
        os._exit(0)
