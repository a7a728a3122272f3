#include "src/exp/runner.h"

#include "src/ckpt/format.h"
#include "src/ckpt/signal.h"
#include "src/common/log.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace lnuca::exp {

const hier::run_result* report::find(std::size_t config, std::size_t workload,
                                     std::size_t replicate) const
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const job_key& k = jobs[i].key;
        if (k.config == config && k.workload == workload &&
            k.replicate == replicate)
            return &results[i];
    }
    return nullptr;
}

std::vector<hier::run_result> report::row(std::size_t config) const
{
    std::vector<hier::run_result> out;
    out.reserve(workload_count);
    for (std::size_t w = 0; w < workload_count; ++w) {
        const hier::run_result* r = find(config, w, 0);
        if (r == nullptr)
            throw std::logic_error(
                "report::row() needs an unsharded report: missing (config " +
                std::to_string(config) + ", workload " + std::to_string(w) +
                ")");
        out.push_back(*r);
    }
    return out;
}

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point start)
{
    return std::chrono::duration<double>(clock::now() - start).count();
}

/// A zeroed result carrying the job's identity plus the failure state —
/// what the sinks see for a job that threw or stalled.
hier::run_result failure_result(const job& j, hier::run_status status,
                                std::string error)
{
    hier::run_result r;
    r.config_name = j.config.name;
    r.workload_name = j.workload.name;
    r.floating_point = j.workload.floating_point;
    r.status = status;
    r.error = std::move(error);
    return r;
}

/// One attempt, run inline on the calling thread. Exceptions — from fault
/// injection or the simulation itself — become failed rows; everything
/// else keeps status ok.
hier::run_result run_attempt_inline(const job& j, const fault_plan* fault,
                                    std::size_t attempt)
{
    const auto start = clock::now();
    try {
        if (fault != nullptr)
            fault->apply(j.key.flat, attempt); // may throw / stall / _Exit
        return j.run();
    } catch (const ckpt::interrupted& e) {
        // Not a failure: the job was preempted by SIGTERM/SIGINT after its
        // checkpoint was durably saved. The row records why the sweep is
        // incomplete; --resume restores the snapshot and finishes the job.
        hier::run_result r = failure_result(j, hier::run_status::failed,
                                            e.what());
        r.host_seconds = seconds_since(start);
        return r;
    } catch (const ckpt::ckpt_error& e) {
        // A restore that failed after state was partially loaded (the only
        // ckpt_error that escapes hier::system). The polluted system object
        // is already destroyed, so rebuild cold — this preserves the job's
        // result at the cost of re-running it from the start.
        LNUCA_WARN("job ", j.key.flat, ": ", e.what(),
                   "; re-running from a cold start");
        job cold = j;
        cold.config.checkpoint.resume = false;
        try {
            return cold.run();
        } catch (const std::exception& e2) {
            hier::run_result r = failure_result(j, hier::run_status::failed,
                                                e2.what());
            r.host_seconds = seconds_since(start);
            return r;
        }
    } catch (const std::exception& e) {
        hier::run_result r = failure_result(j, hier::run_status::failed,
                                            e.what());
        r.host_seconds = seconds_since(start);
        return r;
    } catch (...) {
        hier::run_result r = failure_result(
            j, hier::run_status::failed, "unknown exception (not derived "
                                         "from std::exception)");
        r.host_seconds = seconds_since(start);
        return r;
    }
}

/// One attempt under a soft timeout: the attempt runs on its own thread
/// writing into a heap slot; on deadline the waiter abandons (detaches)
/// the thread and reports timed_out. The slot is shared_ptr-owned, so the
/// zombie's eventual write is safe; the job is copied into the thread for
/// the same reason.
hier::run_result run_attempt_with_timeout(const job& j, const run_options& opt,
                                          std::size_t attempt)
{
    struct attempt_slot {
        std::mutex mutex;
        std::condition_variable done_cv;
        bool done = false;
        hier::run_result result;
    };
    auto slot = std::make_shared<attempt_slot>();
    const fault_plan fault = opt.fault != nullptr ? *opt.fault : fault_plan{};

    std::thread worker([slot, j, fault, attempt] {
        hier::run_result r = run_attempt_inline(j, &fault, attempt);
        {
            std::lock_guard<std::mutex> lock(slot->mutex);
            slot->result = std::move(r);
            slot->done = true;
        }
        slot->done_cv.notify_all();
    });

    std::unique_lock<std::mutex> lock(slot->mutex);
    const bool finished = slot->done_cv.wait_for(
        lock, std::chrono::duration<double>(opt.job_timeout_seconds),
        [&] { return slot->done; });
    if (finished) {
        hier::run_result r = std::move(slot->result);
        lock.unlock();
        worker.join();
        return r;
    }
    lock.unlock();
    worker.detach();
    hier::run_result r = failure_result(
        j, hier::run_status::timed_out,
        "exceeded " + std::to_string(opt.job_timeout_seconds) +
            "s soft timeout; attempt thread abandoned");
    r.host_seconds = opt.job_timeout_seconds;
    return r;
}

} // namespace

hier::run_result execute_job(const job& j, const run_options& opt)
{
    const bool checkpointing =
        !opt.checkpoint_dir.empty() && opt.checkpoint_every != 0;
    const std::size_t attempts = 1 + opt.job_retries;
    hier::run_result r;
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
        if (ckpt::interrupt_requested())
            return failure_result(
                j, hier::run_status::failed,
                "interrupted by signal before the job started; re-run "
                "with --resume");
        job stamped = j;
        if (checkpointing) {
            stamped.config.checkpoint.path = opt.checkpoint_dir + "/job_" +
                                             std::to_string(j.key.flat) +
                                             ".ckpt";
            stamped.config.checkpoint.every = opt.checkpoint_every;
            // Only the first attempt restores: a snapshot implicated in a
            // failed attempt must not poison every retry (retries keep the
            // bit-identical cold contract of the header comment).
            stamped.config.checkpoint.resume =
                opt.checkpoint_resume && attempt == 0;
        }
        r = opt.job_timeout_seconds > 0.0
                ? run_attempt_with_timeout(stamped, opt, attempt)
                : run_attempt_inline(stamped, opt.fault, attempt);
        // A retry reconstructs the run from the same rng::split(base, c, w,
        // r) seed, so a success here is bit-identical to a first-try one.
        if (r.status == hier::run_status::ok)
            return r;
        if (ckpt::interrupt_requested())
            return r; // a latched signal would preempt every retry too
    }
    if (attempts > 1)
        r.error += " (after " + std::to_string(attempts) + " attempts)";
    return r;
}

std::size_t count_failures(const report& rep)
{
    std::size_t failures = 0;
    for (const auto& r : rep.results)
        if (r.status == hier::run_status::failed ||
            r.status == hier::run_status::timed_out)
            ++failures;
    return failures;
}

std::size_t report_failures(const report& rep)
{
    std::size_t counts[4] = {0, 0, 0, 0};
    for (const auto& r : rep.results)
        ++counts[std::size_t(r.status)];
    const std::size_t failures =
        counts[std::size_t(hier::run_status::failed)] +
        counts[std::size_t(hier::run_status::timed_out)];
    if (failures == 0)
        return 0;
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        const hier::run_result& r = rep.results[i];
        if (r.status != hier::run_status::failed &&
            r.status != hier::run_status::timed_out)
            continue;
        const job& j = rep.jobs[i];
        std::fprintf(stderr,
                     "FAILED job: %s x %s (config %zu, workload %zu, "
                     "replicate %zu, flat %zu, seed %llu): %s: %s\n",
                     r.config_name.c_str(), r.workload_name.c_str(),
                     j.key.config, j.key.workload, j.key.replicate,
                     j.key.flat, (unsigned long long)j.seed,
                     to_string(r.status), r.error.c_str());
    }
    std::fprintf(stderr,
                 "sweep finished with failures: %zu ok, %zu failed, %zu "
                 "timed out, %zu resumed (of %zu jobs)\n",
                 counts[std::size_t(hier::run_status::ok)],
                 counts[std::size_t(hier::run_status::failed)],
                 counts[std::size_t(hier::run_status::timed_out)],
                 counts[std::size_t(hier::run_status::skipped_resumed)],
                 rep.jobs.size());
    return failures;
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            fn(i);
    };
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < std::min<std::size_t>(threads, n); ++t)
        helpers.emplace_back(work);
    work();
    for (std::thread& helper : helpers)
        helper.join();
}

report run_sweep(const sweep& s, const run_options& opt,
                 const std::vector<sink*>& sinks)
{
    report rep;
    rep.jobs = s.build();
    rep.config_count = s.configs().size();
    rep.workload_count = s.workloads().size();
    rep.replicate_count = s.replicate_count();
    rep.results.resize(rep.jobs.size());
    const std::size_t n = rep.jobs.size();

    for (sink* sk : sinks)
        if (sk != nullptr)
            sk->begin(n);

    // In-order streaming emission: rows reach the sinks in flat-job order
    // — deterministic bytes out, independent of which worker finished
    // first — but *during* the sweep, as soon as every earlier-flat job is
    // done, so a killed process leaves a durable prefix instead of losing
    // every finished row.
    std::mutex emit_mutex;
    std::vector<char> done(n, 0);
    // A sink whose write/fsync failed (sink_error) is disabled for the rest
    // of the sweep instead of repeating the throw on every row: complete()
    // runs on a worker thread, where an escaped exception would terminate
    // the process and lose every other job's work.
    std::vector<char> sink_down(sinks.size(), 0);
    std::size_t cursor = 0;
    auto consume_guarded = [&](std::size_t s, const job& j,
                               const hier::run_result& r) {
        if (sinks[s] == nullptr || sink_down[s])
            return;
        try {
            sinks[s]->consume(j, r);
        } catch (const sink_error& e) {
            sink_down[s] = 1;
            ++rep.sink_failures;
            LNUCA_WARN("sink ", s, " disabled for the rest of the sweep: ",
                       e.what());
        }
    };
    auto complete = [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(emit_mutex);
        done[i] = 1;
        while (cursor < n && done[cursor]) {
            if (opt.row_hook)
                opt.row_hook(rep.jobs[cursor], rep.results[cursor], rep);
            for (std::size_t s = 0; s < sinks.size(); ++s)
                consume_guarded(s, rep.jobs[cursor], rep.results[cursor]);
            ++cursor;
        }
    };

    auto run_job = [&](std::size_t i) {
        const job& j = rep.jobs[i];
        bool resumed = false;
        if (opt.resume != nullptr) {
            const auto it = opt.resume->find(j.key.flat);
            if (it != opt.resume->end()) {
                rep.results[i] = it->second;
                rep.results[i].status = hier::run_status::skipped_resumed;
                resumed = true;
            }
        }
        if (!resumed)
            rep.results[i] = execute_job(j, opt);
        complete(i);
    };

    parallel_for(n, opt.threads, run_job);

    for (std::size_t s = 0; s < sinks.size(); ++s) {
        if (sinks[s] == nullptr || sink_down[s])
            continue;
        try {
            sinks[s]->finish();
        } catch (const sink_error& e) {
            ++rep.sink_failures;
            LNUCA_WARN("sink ", s, " failed to finish: ", e.what());
        }
    }
    return rep;
}

} // namespace lnuca::exp
