// Reading sweep rows back: the one scan that both `--resume` (run_app) and
// merge_tool (merge_results) run over JSON-lines files, plus the merge
// itself - kept in the library so tests drive every edge case in-process.
//
// scan_rows() folds a file's rows into a per-flat table:
//
//   - every decodable row must belong to the sweep: flat coordinates,
//     derived seed, instruction/warmup counts, manifest hash, config and
//     workload names and the sampled flag must match the job at its flat
//     index - a row from a different experiment is a hard error, never
//     silently dropped or kept;
//   - at most one undecodable *trailing* line is tolerated (the torn tail
//     of a killed writer); an undecodable line anywhere else is a hard
//     error;
//   - per flat index, a completed (status ok) row beats a failed /
//     timed-out one in either order; the failed row is kept only when no
//     ok row arrives;
//   - duplicate ok rows for one flat must agree on every deterministic
//     field (everything but the host-timing trio). Agreeing duplicates
//     collapse to one row; disagreeing ones are a hard error, because two
//     "bit-identical" runs that differ expose either seed reuse or
//     nondeterminism - exactly what the determinism contract promises
//     cannot happen.
//
// Inputs of merge_results are the raw contents of any number of files from
// runs of the *same* manifest (shards, resumed re-runs, or a mix; a file
// appearing twice is harmless). The merged output contains exactly one
// line per completed flat, in flat order, re-encoded with
// encode_json_line() - byte-identical (modulo the host-timing trio) to
// what a single clean unsharded run would have written.
#pragma once

#include "src/exp/manifest.h"
#include "src/exp/sink.h"

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace lnuca::exp {

/// The per-flat rows scan_rows() has kept so far.
struct row_scan {
    struct row {
        hier::run_result result;
        std::string canonical; ///< encode_deterministic_line; ok rows only

        bool ok() const { return !canonical.empty(); }
    };
    std::map<std::size_t, row> rows; ///< flat -> best row
    std::size_t rows_seen = 0;       ///< decodable rows (any status)
    std::size_t duplicates = 0;      ///< extra agreeing ok rows collapsed
};

/// Fold the rows of one file's `content` into `scan` under the rules in
/// the header comment. `jobs` is the full, unsharded job list: rows of
/// every shard of the sweep may share a file. `kept_bytes` is the length
/// of the prefix that holds whole rows: content.size(), or the offset of
/// a torn trailing line that was dropped. On a hard error returns false
/// with `error` set to "line N: <why>".
bool scan_rows(const std::vector<job>& jobs, const std::string& content,
               row_scan& scan, std::size_t& kept_bytes, std::string& error);

/// Coverage accounting of one merge. complete() gates the merge_tool exit
/// code: a merge can succeed mechanically (no hard errors) and still
/// describe an incomplete result set.
struct merge_report {
    std::size_t expected = 0;   ///< manifest total_jobs
    std::size_t rows_seen = 0;  ///< decodable rows across all inputs
    std::size_t duplicates = 0; ///< extra agreeing ok rows collapsed
    std::size_t torn_tails = 0; ///< tolerated trailing truncated lines
    std::vector<std::size_t> missing; ///< flats with no row at all
    std::vector<std::size_t> failed;  ///< flats whose best row is failed/
                                      ///< timed-out (no ok row arrived)

    bool complete() const { return missing.empty() && failed.empty(); }
};

/// One input: {label for error messages (file name), file content}.
using merge_input = std::pair<std::string, std::string>;

/// Merge `inputs` against `m`. On success returns true with the canonical
/// JSONL in `out_jsonl` (only completed rows, flat order) and the coverage
/// in `report` — the caller decides whether incomplete-but-clean is fatal.
/// On a hard error (provenance mismatch, mid-file corruption, conflicting
/// duplicates) returns false with `error` naming input and line.
bool merge_results(const manifest& m, const std::vector<merge_input>& inputs,
                   std::string& out_jsonl, merge_report& report,
                   std::string* error);

/// Render `report` as the human coverage summary merge_tool prints
/// (one line of totals plus compact missing/failed flat lists).
std::string describe_merge(const merge_report& report);

} // namespace lnuca::exp
