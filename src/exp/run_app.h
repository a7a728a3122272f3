// Shared main() body for the figure/table bench binaries and sweep-driven
// examples. Standardises the experiment-runner command line:
//
//   --manifest FILE    drive the sweep from a lnuca_sweep/1 JSON manifest
//                      (src/exp/manifest.h) instead of the bench's own
//                      configs/workloads. The manifest is authoritative for
//                      the experiment definition, so combining it with
//                      --workload/--instructions/--warmup/--seed/
//                      --replicates/--engine/--sampling/--capture is a CLI
//                      error; --shard/--resume/--threads/--json/--csv/
//                      fault-tolerance flags compose as usual. Every row
//                      carries the manifest's content hash, and --resume
//                      refuses files whose rows carry a different one.
//   --instructions N   measured instructions per run
//   --warmup N         discarded warm-up instructions per run
//   --seed S           base seed (per-job seeds derive via rng::split)
//   --replicates R     repeated measurements per (config, workload)
//   --threads N        worker threads (0 = all hardware threads, 1 = serial)
//   --shard i/n        run only this shard of the sweep (multi-machine)
//   --json PATH        append JSON-lines results ("-" = stdout)
//   --csv PATH         write CSV results ("-" = stdout)
//   --engine MODE      dense | skip | paranoid (default: skip; bit-identical
//                      schedules, see src/sim/engine.h)
//   --sampling SPEC    off (default) | periodic:<detail>:<period>[:<warmup>]
//                      sampled execution: functional fast-forward plus
//                      periodic detailed windows; results carry a 95% CI
//                      (run_result::ipc_ci95) and estimated counts
//   --workload LIST    replace the bench's default workload set with a
//                      comma-separated spec list: SPEC proxy names (all =
//                      the whole suite), trace:<file> (binary trace
//                      replay), or scenario:<name> (shared-memory scenario
//                      library)
//   --capture PATH     serialise the run's instruction stream(s) to a
//                      binary trace file; requires a single-job sweep
//                      (one config x one workload, replicates=1)
//   --timeout S        per-job soft timeout in seconds (0 = off): a stalled
//                      job becomes a timed_out row instead of hanging the
//                      sweep (its attempt thread is abandoned)
//   --retries N        extra attempts for a failed/timed-out job; retries
//                      re-derive the identical rng::split seed, so a
//                      successful retry is bit-identical to a clean run
//   --resume           scan the --json file, skip every (config, workload,
//                      replicate) already completed there (failed rows and
//                      one trailing truncated line are re-run/repaired;
//                      a row from another sweep is a CLI error),
//                      and append only the missing rows — an interrupted
//                      shard re-invoked with the same command line
//                      converges to the uninterrupted run's byte content
//                      (modulo host-timing fields)
//   --durable N        crash-durable JSON-lines: write every row
//                      immediately and fsync every N rows
//   --checkpoint-every N
//                      mid-run checkpointing (src/ckpt/): every job
//                      snapshots its full simulator state every N retired
//                      instructions and on SIGTERM/SIGINT (the run then
//                      exits 128+signum after saving). With --resume, a
//                      job's valid snapshot restores and the run continues
//                      bit-identically to an uninterrupted one; a corrupt
//                      or mismatched snapshot falls back to a cold start.
//                      Mutually exclusive with --capture.
//   --checkpoint-dir D directory for the per-job snapshot files
//                      (job_<flat>.ckpt); defaults to <json path>.ckpt.d
//                      next to --json FILE, or "checkpoints" without one
//   --fault SPEC       test-only fault injection (also: LNUCA_FAULT env
//                      var; flag wins): throw:<flat>[:<attempts>] |
//                      stall:<flat>:<sec>[:<attempts>] | exit:<flat>[:<code>]
//   --quiet            skip the paper-style rendered tables and the
//                      throughput summary
//
// A bench passes its configs, workloads, a render callback and - for CMP
// grids - each config's single-core weighted-speedup partner; run_app
// expands the sweep, runs it across worker threads, wires the requested
// sinks, and — for unsharded runs — calls render with the completed
// report. Sharded runs suppress rendering (the matrix is partial by
// construction) and tell the operator to merge the JSON-lines shards
// instead. Every bench binary, fig_cmp included, is one run_app call.
//
// Any other option is a CLI error unless the calling binary names it as
// its own (run_app's `caller_flags`): a misspelt --instructions must not
// silently run the default length, and --help must not run the sweep.
//
// Exit codes: 0 on success, exit_job_failure (1) when any job failed or
// timed out (the failure summary on stderr names each one), and
// exit_cli_error (2) for command-line/configuration errors (an unknown
// option, a mistyped --engine, --sampling, --workload or --shard value
// among them) — so fleet drivers can tell "re-run the failed rows" from
// "fix the invocation".
#pragma once

#include "src/common/cli.h"
#include "src/exp/fault.h"
#include "src/exp/runner.h"
#include "src/exp/sink.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lnuca::exp {

/// Process exit codes shared by run_app and the self-driving benches.
inline constexpr int exit_ok = 0;
inline constexpr int exit_job_failure = 1; ///< >= 1 job failed / timed out
inline constexpr int exit_cli_error = 2;   ///< bad flags / unusable files

struct app_options {
    /// --manifest: when non-empty, the sweep definition comes from this
    /// lnuca_sweep/1 file and the per-axis flags above are rejected.
    std::string manifest_path;
    std::uint64_t instructions = hier::default_instructions;
    std::uint64_t warmup = hier::default_warmup;
    std::uint64_t seed = 1;
    std::size_t replicates = 1;
    unsigned threads = 0;
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    std::string json_path;
    std::string csv_path;
    bool quiet = false;
    sim::schedule_mode engine_mode = sim::schedule_mode::idle_skip;
    hier::sampling_config sampling; ///< disabled unless --sampling given
    /// --workload: when non-empty, replaces the bench's default workload
    /// set (already parsed into profiles; trace/scenario specs carry their
    /// source in workload_profile::trace_path / scenario).
    std::vector<wl::workload_profile> workload_override;
    std::string capture_path; ///< --capture: binary trace output file

    // Fault tolerance / resume (see the flag table above).
    double timeout_seconds = 0.0;     ///< --timeout
    std::size_t retries = 0;          ///< --retries
    bool resume = false;              ///< --resume
    std::size_t durable_rows = 0;     ///< --durable (0 = batched, no fsync)
    std::optional<fault_plan> fault;  ///< --fault / LNUCA_FAULT
    std::uint64_t checkpoint_every = 0; ///< --checkpoint-every (0 = off)
    std::string checkpoint_dir;         ///< --checkpoint-dir (defaulted)

    /// Set by parse_app_options on an unusable command line (bad --shard,
    /// bad --fault, ...). Callers must print cli_error_text and exit with
    /// exit_cli_error instead of running a half-configured sweep.
    bool cli_error = false;
    std::string cli_error_text;
};

/// Parse the shared options. An option that is neither one of them nor
/// named in `caller_flags` (without the leading "--") sets cli_error.
app_options
parse_app_options(const cli_args& args,
                  const std::vector<std::string>& caller_flags = {});

/// Result of scanning an existing JSON-lines file for --resume.
struct resume_scan {
    /// flat job index -> decoded result for flats with a completed (status
    /// ok) row; flats with only failed/timed-out rows are absent so they
    /// re-run.
    std::map<std::size_t, hier::run_result> completed;
    std::size_t rows = 0;         ///< decodable rows seen (any status)
    std::size_t rerun_failed = 0; ///< flats with only failed rows: re-run
    bool truncated_tail = false;  ///< one partial trailing line was removed
};

/// Scan opt.json_path against the sweep for --resume with scan_rows()
/// (src/exp/merge.h), the same rules merge_tool applies: every row must
/// belong to this sweep (rows of its other shards are accepted and
/// ignored), an ok row beats a failed one, two ok rows for one flat must
/// agree, and one undecodable trailing line is a torn tail, truncated off
/// the file. Returns false (message on stderr) when resume cannot proceed.
bool scan_resume_file(const app_options& opt, const sweep& s,
                      resume_scan& out);

/// Render callback: the completed (unsharded) report plus the options.
using render_fn = std::function<void(const report&, const app_options&)>;

/// Per-config index of the cores == 1 config a CMP row's weighted speedup
/// is measured against (nullopt: none). Partners must precede their CMP
/// configs, so a baseline row is final before its CMP rows stream out.
using baseline_list = std::vector<std::optional<std::size_t>>;

/// Run a (configs x workloads) sweep under the shared command line.
/// Every CMP row (cores > 1) gets run_result::weighted_speedup against its
/// partner's row on the same workload and replicate; the partners come
/// from the manifest's baseline_config under --manifest and from
/// `baselines` otherwise (empty: the bench has no CMP partners).
/// `caller_flags` names the options the calling binary reads itself.
/// Returns the process exit code (see exit_* above).
int run_app(int argc, const char* const* argv,
            std::vector<hier::system_config> configs,
            std::vector<wl::workload_profile> workloads,
            const render_fn& render, baseline_list baselines = {},
            const std::vector<std::string>& caller_flags = {});

} // namespace lnuca::exp
