// Result sinks for the experiment runner.
//
// The runner replays finished (job, run_result) pairs into every sink in
// deterministic flat-job order, after the parallel phase — a sink never sees
// scheduler-dependent interleavings, so its output is bit-stable across
// thread counts *except* the host-timing fields (host_seconds and the
// derived throughput rates), which measure the host by design.
//
// Formats:
//   table_sink  human-readable summary table (one row per run)
//   csv_sink    flat CSV, one header row + one row per run: one column per
//               JSON-lines key (flat_columns)
//   jsonl_sink  JSON-lines: one self-contained object per run, carrying the
//               job coordinates, derived seed, the full run_result and the
//               energy breakdown. decode_json_line() round-trips the format
//               (results store, merge, --resume and tests).
//
// Every row format walks one field list, visit_row(): the run_result field
// table (src/hier/system.h) with the job coordinates after the run names.
#pragma once

#include "src/exp/job.h"

#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace lnuca::exp {

/// Thrown by jsonl_sink when a write(2) or fsync(2) fails: rows the caller
/// believes durable would otherwise be silently lost (a sweep "completing"
/// with an empty output file). The message names the flat row index where
/// the loss starts. run_sweep catches it, disables that sink for the rest
/// of the sweep and counts it in report::sink_failures — the simulation
/// results themselves survive in the in-memory report.
class sink_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class sink {
public:
    virtual ~sink() = default;

    /// Called once before the first consume() with the sharded job count.
    virtual void begin(std::size_t job_count) { (void)job_count; }

    /// Called once per finished job, in flat-job order.
    virtual void consume(const job& j, const hier::run_result& r) = 0;

    /// Called once after the last consume().
    virtual void finish() {}
};

/// Compact human-readable run log (headline metrics only).
class table_sink final : public sink {
public:
    explicit table_sink(std::ostream& out) : out_(out) {}
    void consume(const job& j, const hier::run_result& r) override;
    void finish() override;

private:
    std::ostream& out_;
    std::vector<std::vector<std::string>> rows_;
};

/// Flat CSV, one column per flat_columns() entry.
class csv_sink final : public sink {
public:
    explicit csv_sink(std::ostream& out) : out_(out) {}
    void begin(std::size_t job_count) override;
    void consume(const job& j, const hier::run_result& r) override;

private:
    std::ostream& out_;
};

/// JSON-lines, one object per run. Rows are batched through a pre-sized
/// string buffer and flushed every `flush_rows` rows plus once from
/// finish()/the destructor - one write per batch instead of a formatted
/// write per row (visible in --shard sweeps, where thousands of rows append
/// to one file).
///
/// Crash-safety contract (file mode): the file opens with O_APPEND and a
/// flush writes only whole lines in one write(2), so the sink never leaves
/// a partial record *of its own making* mid-file — after any flush boundary
/// the file ends at a newline. A kill between flushes loses at most the
/// buffered rows (whole rows, recoverable by --resume), and a torn tail
/// from a mid-write crash is at most one trailing truncated line, which the
/// resume scan tolerates and truncates away. `fsync_rows > 0` additionally
/// fsyncs every N rows (and once from finish()) so rows survive a host
/// crash, not just a process kill.
///
/// Rows with status == skipped_resumed are *not* written: they were loaded
/// from this very file by --resume and re-appending them would duplicate
/// records, breaking the byte-identical-convergence guarantee.
class jsonl_sink final : public sink {
public:
    explicit jsonl_sink(std::ostream& out, std::size_t flush_rows = 64);
    /// Append-only file mode (see the crash-safety contract above).
    jsonl_sink(const std::string& path, std::size_t flush_rows,
               std::size_t fsync_rows);
    ~jsonl_sink() override;

    /// File mode: false when the file could not be opened.
    bool ok() const { return out_ != nullptr || fd_ >= 0; }

    void begin(std::size_t job_count) override;
    void consume(const job& j, const hier::run_result& r) override;
    void finish() override;

private:
    /// Throws sink_error on a failed/short write(2) or failed fsync(2)
    /// (file mode). The buffer is cleared first so the destructor's final
    /// flush cannot re-throw the same loss.
    void flush();

    std::ostream* out_ = nullptr; ///< stream mode (stdout / tests)
    int fd_ = -1;                 ///< file mode (O_APPEND + optional fsync)
    std::size_t flush_rows_;
    std::size_t fsync_rows_ = 0;  ///< 0 = never fsync
    std::size_t buffered_rows_ = 0;
    std::size_t rows_since_fsync_ = 0;
    std::size_t consumed_rows_ = 0; ///< rows seen; names the loss point
    std::string buffer_;
};

/// f(field, value) over a row's job coordinates, in key order. `manifest`
/// is the manifest hash (field_kind::hex64, absent on ad-hoc sweeps).
template <class J, class F> void visit_coordinates(J& j, F&& f)
{
    using hier::field_kind;
    const auto label = [](const char* name, field_kind kind) {
        return hier::field{name, kind, hier::field_role::label};
    };
    f(label("config_index", field_kind::u64), j.key.config);
    f(label("workload_index", field_kind::u64), j.key.workload);
    f(label("replicate", field_kind::u64), j.key.replicate);
    f(label("flat", field_kind::u64), j.key.flat);
    f(label("seed", field_kind::id64), j.seed);
    f(label("instructions_requested", field_kind::u64), j.instructions);
    f(label("warmup", field_kind::u64), j.warmup);
    f(label("manifest", field_kind::hex64), j.manifest_hash);
}

/// f(field, value) over one sweep row - the result's fields with the job
/// coordinates after the run names - in JSON-lines key order. `J`/`R` may
/// be const.
template <class J, class R, class F> void visit_row(J& j, R& r, F&& f)
{
    hier::for_each_field(
        [&](const hier::field& d, auto member) { f(d, r.*member); },
        [&] { visit_coordinates(j, f); });
}

/// One column of a row's flat view, shared by the CSV, the results store
/// and trace_tool's digest: each JSON-lines key in key order, the energy
/// object split into energy_<part> columns (energy_total_j included),
/// arrays joined with ';', flags as 1/0, an absent manifest as "".
struct flat_column {
    std::string name;      ///< CSV header / results-store column
    std::string json_path; ///< where the value sits ("energy.dynamic_j")
    hier::field field;     ///< table entry (the energy entry for its parts)
    std::string text;
};

std::vector<flat_column> flat_columns(const job& j, const hier::run_result& r);

/// The results-store schema, one "column<TAB>SQL type<TAB>JSON path" line
/// per flat column. `merge_tool --print-schema` prints it and
/// tools/results_db.py builds its `runs` table from it.
std::string store_schema();

/// One decoded jsonl_sink line.
struct decoded_run {
    job_key key;
    std::uint64_t seed = 0;
    std::uint64_t instructions_requested = 0;
    std::uint64_t warmup = 0;
    /// Manifest provenance stamp (0 = ad-hoc sweep or pre-manifest row).
    std::uint64_t manifest_hash = 0;
    hier::run_result result;
};

/// Serialise one run the way jsonl_sink does (doubles keep full precision,
/// so decode_json_line() round-trips bit-exactly). `status` is always
/// emitted; `error` only when status != ok.
std::string encode_json_line(const job& j, const hier::run_result& r);

/// encode_json_line() with the host-timing fields zeroed: the bytes every
/// run of the same job must reproduce.
std::string encode_deterministic_line(const job& j, hier::run_result r);

/// Parse an encode_json_line() line. Returns std::nullopt — never UB or a
/// partially-filled struct presented as valid — on any malformed input:
/// truncation mid-string/mid-number/mid-escape, a missing closing brace, a
/// non-numeric value for a numeric key, or an unknown status string. Lines
/// from older writers without status/error decode with status == ok.
std::optional<decoded_run> decode_json_line(const std::string& line);

} // namespace lnuca::exp
