// Sweep execution: expand a sweep, run every job across worker threads
// (parallel_for), and stream the results into sinks in deterministic
// flat-job order.
//
// Determinism contract: results are written into preallocated slots keyed by
// job index, so the thread count and the order workers claim jobs in change
// only wall-clock time — run_sweep(s, {1}) and run_sweep(s, {8}) return
// bit-identical reports, and sinks observe the same byte stream either way.
//
// Fault isolation: a job that throws no longer kills the sweep — its slot
// becomes a structured failure row (run_status::failed + the exception text)
// and every other job still runs. Optional per-job soft timeouts mark
// stalled jobs timed_out (the stuck attempt thread is abandoned), and
// bounded retry re-runs a failed job with the *same* rng::split-derived
// seed — the seed is a pure function of (base seed, coordinates), so a
// successful retry is bit-identical to a first-try success.
//
// Crash safety: sinks consume rows *during* the sweep, in flat order, as
// soon as every earlier-flat job has finished (an in-order emission cursor
// under a mutex). Combined with jsonl_sink's append-only file mode, a
// killed sweep leaves a prefix of whole rows on disk that --resume can
// extend to the exact byte content of an uninterrupted run.
#pragma once

#include "src/common/stats.h"
#include "src/exp/fault.h"
#include "src/exp/job.h"
#include "src/exp/sink.h"
#include "src/exp/sweep.h"

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

namespace lnuca::exp {

struct report;

/// Called under the emission lock, in flat order, after every earlier-flat
/// result is final and before the row reaches the sinks. Lets a bench
/// derive cross-job fields (e.g. fig_cmp's weighted speedup against the
/// earlier-flat single-core baseline) without losing streaming crash
/// safety. Must be deterministic; earlier rows of `rep` are complete.
using row_hook_fn =
    std::function<void(const job&, hier::run_result&, const report&)>;

struct run_options {
    run_options() = default;
    /// Shorthand for the common "just pick a thread count" case, keeping
    /// run_sweep(s, {4}) call sites valid now that there are more fields.
    run_options(unsigned thread_count) : threads(thread_count) {}

    /// Worker threads; 0 = one per hardware thread, 1 = serial in the
    /// calling thread (see parallel_for).
    unsigned threads = 0;

    /// Per-job soft timeout in seconds; 0 disables. A timed-out job yields
    /// a run_status::timed_out row and its attempt thread is abandoned (it
    /// only touches its own heap slot, so this is safe — but the zombie
    /// keeps burning a core until the simulation returns).
    double job_timeout_seconds = 0.0;

    /// Extra attempts after a failed/timed-out attempt. Retries re-derive
    /// the identical rng::split seed, so a retried success is bit-identical
    /// to a first-try success (fault injection only targets early attempts).
    std::size_t job_retries = 0;

    /// Test-only fault injection (non-owning; see src/exp/fault.h).
    const fault_plan* fault = nullptr;

    /// --resume: jobs whose flat index appears here are not executed; the
    /// mapped result (decoded from the existing output) is used with
    /// status rewritten to skipped_resumed. Non-owning.
    const std::map<std::size_t, hier::run_result>* resume = nullptr;

    /// Optional per-row post-processing before the sinks (see row_hook_fn).
    row_hook_fn row_hook;

    /// Mid-run checkpointing (src/ckpt/): when checkpoint_dir is non-empty
    /// and checkpoint_every > 0, every job snapshots its full simulator
    /// state to <checkpoint_dir>/job_<flat>.ckpt every N retired
    /// instructions (and on SIGTERM/SIGINT once the latch is installed).
    /// checkpoint_resume restores a job's first attempt from its file when
    /// present and valid; retries always start cold so a corrupt snapshot
    /// cannot poison every attempt. A completed job deletes its file.
    std::string checkpoint_dir;
    std::uint64_t checkpoint_every = 0;
    bool checkpoint_resume = false;
};

/// Results of one sweep execution. jobs[i] produced results[i].
struct report {
    std::vector<job> jobs;
    std::vector<hier::run_result> results;

    /// Always 0: every worker is joined before run_sweep returns. A stuck
    /// job is bounded by run_options::job_timeout_seconds instead, which
    /// abandons only that attempt's own thread. Kept for callers that
    /// still report it.
    std::size_t abandoned_workers = 0;

    /// Sinks disabled mid-sweep after a sink_error (failed write/fsync).
    /// The sweep itself keeps running; the exit tally reports the loss.
    std::size_t sink_failures = 0;

    // Dimensions of the full sweep (before shard filtering).
    std::size_t config_count = 0;
    std::size_t workload_count = 0;
    std::size_t replicate_count = 0;

    /// Result of (config, workload, replicate), or nullptr when that job
    /// fell outside this shard.
    const hier::run_result* find(std::size_t config, std::size_t workload,
                                 std::size_t replicate = 0) const;

    /// Replicate-0 results of one config across all workloads, in workload
    /// order. Only meaningful for unsharded runs; throws std::logic_error
    /// when a cell is missing (sharded report).
    std::vector<hier::run_result> row(std::size_t config) const;
};

/// Run fn(0) .. fn(n-1) on `threads` workers (0 = one per hardware
/// thread, 1 = serially on the calling thread). Every worker, the caller
/// included, claims the next index from one shared counter until none is
/// left, so no worker idles while work remains. fn must not throw.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

/// Expand and run a sweep. Sinks (may be empty) see jobs in flat order,
/// streamed during execution (crash-safe; see the header comment).
report run_sweep(const sweep& s, const run_options& opt = {},
                 const std::vector<sink*>& sinks = {});

/// Run one job under the fault-isolation contract: exceptions become
/// run_status::failed rows, opt.job_timeout_seconds bounds each attempt,
/// opt.job_retries re-runs failures with the identical derived seed, and
/// opt.fault injects test faults. Never throws.
hier::run_result execute_job(const job& j, const run_options& opt);

/// Count of rows whose status is failed or timed_out.
std::size_t count_failures(const report& rep);

/// Print one stderr line per failed/timed-out job — config and workload
/// names, (config, workload, replicate) coordinates, the derived seed, and
/// the error text — plus a status tally. Returns count_failures(rep).
std::size_t report_failures(const report& rep);

// ---------------------------------------------------------------------------
// Paper-style aggregation over one config's row (previously duplicated in
// every bench binary's bench_util.h).
// ---------------------------------------------------------------------------

/// Harmonic-mean IPC over a workload group (the paper's aggregation).
inline double group_ipc(const std::vector<hier::run_result>& results, bool fp)
{
    std::vector<double> values;
    for (const auto& r : results)
        if (r.floating_point == fp)
            values.push_back(r.ipc);
    return harmonic_mean(values);
}

/// Arithmetic mean of a per-benchmark metric over a group.
template <typename Fn>
double group_mean(const std::vector<hier::run_result>& results, bool fp, Fn fn)
{
    std::vector<double> values;
    for (const auto& r : results)
        if (r.floating_point == fp)
            values.push_back(fn(r));
    return arithmetic_mean(values);
}

} // namespace lnuca::exp
