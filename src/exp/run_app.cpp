#include "src/exp/run_app.h"

#include "src/ckpt/signal.h"
#include "src/common/stats.h"
#include "src/exp/manifest.h"
#include "src/exp/merge.h"
#include "src/trace/workload_spec.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>

namespace lnuca::exp {

namespace {

// "--shard i/n" -> (i, n). Accepts "i:n" too. Digits only — no silent
// partial parses ("--shard 0x1/2" is a typo, not shard 0).
bool parse_shard(const std::string& text, std::size_t& index,
                 std::size_t& count)
{
    const std::size_t sep = text.find_first_of("/:");
    if (sep == std::string::npos || sep == 0 || sep + 1 >= text.size())
        return false;
    const std::string left = text.substr(0, sep);
    const std::string right = text.substr(sep + 1);
    for (const std::string& part : {left, right})
        for (char c : part)
            if (c < '0' || c > '9')
                return false;
    index = std::size_t(std::strtoull(left.c_str(), nullptr, 10));
    count = std::size_t(std::strtoull(right.c_str(), nullptr, 10));
    return count > 0 && index < count;
}

void set_cli_error(app_options& opt, std::string text)
{
    if (!opt.cli_error) { // keep the first error; it is the root cause
        opt.cli_error = true;
        opt.cli_error_text = std::move(text);
    }
}

// The spec string a workload profile was parsed from (inverse of
// trace::parse_workload_spec) — the canonical sort key for --workload.
std::string workload_spec_of(const wl::workload_profile& w)
{
    if (!w.scenario.empty())
        return "scenario:" + w.scenario;
    if (!w.trace_path.empty())
        return "trace:" + w.trace_path;
    return w.name;
}

/// The JSONL/CSV sinks an app_options asks for, with their backing
/// streams. `ok` is false when an output file could not be opened (already
/// reported to stderr).
struct sink_set {
    std::vector<sink*> sinks;
    bool ok = true;

    // Owned plumbing behind `sinks` (order matters: streams before sinks).
    std::unique_ptr<std::ofstream> csv_file;
    std::unique_ptr<jsonl_sink> json;
    std::unique_ptr<csv_sink> csv;
};

/// Wire the sinks requested by `opt` ("-" streams to stdout).
sink_set make_sinks(const app_options& opt)
{
    // "-" streams to stdout. The JSON-lines file opens O_APPEND (as
    // documented: successive runs/shards/resumes accumulate into one
    // trajectory, and appends are newline-atomic for crash safety); the
    // CSV file truncates, since its header row only makes sense once.
    sink_set set;
    if (!opt.json_path.empty()) {
        if (opt.json_path == "-") {
            set.json = std::make_unique<jsonl_sink>(std::cout);
        } else {
            // --durable N: write every row immediately, fsync every N.
            const std::size_t flush_rows = opt.durable_rows > 0 ? 1 : 64;
            set.json = std::make_unique<jsonl_sink>(opt.json_path, flush_rows,
                                                    opt.durable_rows);
            if (!set.json->ok()) {
                std::fprintf(stderr, "cannot open '%s' for writing\n",
                             opt.json_path.c_str());
                set.ok = false;
                return set;
            }
        }
        set.sinks.push_back(set.json.get());
    }
    if (!opt.csv_path.empty()) {
        if (opt.csv_path == "-") {
            set.csv = std::make_unique<csv_sink>(std::cout);
        } else {
            set.csv_file = std::make_unique<std::ofstream>(opt.csv_path);
            if (!*set.csv_file) {
                std::fprintf(stderr, "cannot open '%s' for writing\n",
                             opt.csv_path.c_str());
                set.ok = false;
                return set;
            }
            set.csv = std::make_unique<csv_sink>(*set.csv_file);
        }
        set.sinks.push_back(set.csv.get());
    }
    return set;
}

/// Post-sweep harness tally: the failed-sink warning, then 128+signum when
/// a latched SIGTERM/SIGINT preempted the sweep, or -1 when the normal exit
/// path applies.
int finish_sweep(const report& rep)
{
    // 0 on every clean sweep; non-zero means rows were lost in a way the
    // status column cannot show.
    if (rep.sink_failures != 0)
        std::fprintf(stderr, "WARNING: %zu sink(s) failed mid-sweep; the "
                             "output files are incomplete\n",
                     rep.sink_failures);

    // A latched SIGTERM/SIGINT preempted the sweep after each running job
    // saved a checkpoint: distinct exit code (128+signum, the shell kill
    // convention) so drivers re-run with --resume instead of triaging the
    // "failed" rows.
    if (ckpt::interrupt_requested()) {
        report_failures(rep);
        std::fprintf(stderr,
                     "sweep interrupted by signal %d after checkpointing; "
                     "re-run the same command with --resume to continue\n",
                     ckpt::interrupt_signal());
        return 128 + ckpt::interrupt_signal();
    }
    return -1;
}

} // namespace

app_options parse_app_options(const cli_args& args,
                              const std::vector<std::string>& caller_flags)
{
    app_options opt;
    opt.instructions = args.get_u64("instructions", opt.instructions);
    opt.warmup = args.get_u64("warmup", opt.warmup);
    opt.seed = args.get_u64("seed", opt.seed);
    opt.replicates = std::size_t(args.get_u64("replicates", opt.replicates));
    opt.threads = unsigned(args.get_u64("threads", opt.threads));
    opt.json_path = args.get_string("json", "");
    opt.csv_path = args.get_string("csv", "");
    opt.quiet = args.has_flag("quiet");
    const std::string engine = args.get_string("engine", "skip");
    if (const auto mode = sim::parse_schedule_mode(engine))
        opt.engine_mode = *mode;
    else
        set_cli_error(opt, "unknown --engine '" + engine +
                               "' (dense|skip|paranoid)");
    const std::string sampling = args.get_string("sampling", "off");
    if (const auto parsed = hier::parse_sampling_spec(sampling))
        opt.sampling = *parsed;
    else
        set_cli_error(opt, "unknown --sampling '" + sampling +
                               "' (off|periodic:<detail>:<period>[:<warmup>])");
    if (const auto shard = args.value("shard")) {
        // A mistyped shard used to fall back to the *full* sweep — the
        // worst possible recovery for a fleet driver, which would then run
        // N copies of everything. It is a hard CLI error now.
        if (!parse_shard(*shard, opt.shard_index, opt.shard_count))
            set_cli_error(opt, "invalid --shard '" + *shard +
                                   "' (expected i/n with i < n)");
    }
    if (const auto workloads = args.value("workload")) {
        std::string bad;
        opt.workload_override = trace::parse_workload_list(*workloads, &bad);
        if (opt.workload_override.empty())
            set_cli_error(opt, "unknown --workload spec '" + bad +
                                   "' (expected a SPEC proxy name, all, "
                                   "trace:<file>, or scenario:<name>)");
        // Canonical ordering: a sweep's flat indices (and hence seeds and
        // resume/merge provenance) must be a function of the workload
        // *set*, not of the order the specs were typed in — otherwise
        // `--workload a,b --resume` silently rejects a file written by the
        // equivalent `--workload b,a` run. Stable sort by spec string;
        // duplicates keep their relative order (and their distinct flats).
        std::stable_sort(opt.workload_override.begin(),
                         opt.workload_override.end(),
                         [](const wl::workload_profile& a,
                            const wl::workload_profile& b) {
                             return workload_spec_of(a) < workload_spec_of(b);
                         });
    }
    opt.capture_path = args.get_string("capture", "");

    // --manifest: the file is authoritative for the experiment definition;
    // every flag that would redefine part of it is rejected rather than
    // silently out-voted (the row provenance hash would not match what the
    // operator typed).
    opt.manifest_path = args.get_string("manifest", "");
    if (!opt.manifest_path.empty()) {
        for (const char* flag :
             {"workload", "instructions", "warmup", "seed", "replicates",
              "engine", "sampling", "capture"}) {
            if (args.value(flag))
                set_cli_error(opt, std::string("--manifest and --") + flag +
                                       " are mutually exclusive (the "
                                       "manifest defines the experiment)");
        }
    }

    opt.timeout_seconds = args.get_double("timeout", 0.0);
    if (opt.timeout_seconds < 0.0)
        set_cli_error(opt, "--timeout must be >= 0 seconds");
    opt.retries = std::size_t(args.get_u64("retries", 0));
    opt.resume = args.has_flag("resume");
    opt.durable_rows = std::size_t(args.get_u64("durable", 0));

    opt.checkpoint_every = args.get_u64("checkpoint-every", 0);
    opt.checkpoint_dir = args.get_string("checkpoint-dir", "");
    if (opt.checkpoint_every != 0 && opt.checkpoint_dir.empty()) {
        // Default the snapshot directory next to the JSON-lines output, so
        // --resume finds both halves of an interrupted run in one place.
        opt.checkpoint_dir = !opt.json_path.empty() && opt.json_path != "-"
                                 ? opt.json_path + ".ckpt.d"
                                 : "checkpoints";
    }
    if (opt.checkpoint_every != 0 && !opt.capture_path.empty())
        set_cli_error(opt,
                      "--checkpoint-every and --capture are mutually "
                      "exclusive (a restored capture would re-emit only the "
                      "post-restore suffix, truncating the trace)");

    // Fault injection: the flag wins over the LNUCA_FAULT environment
    // variable (the env var exists so CI can crash a binary it did not
    // build the command line of).
    std::string fault_spec = args.get_string("fault", "");
    if (fault_spec.empty())
        if (const char* env = std::getenv("LNUCA_FAULT"))
            fault_spec = env;
    if (!fault_spec.empty()) {
        if (const auto plan = fault_plan::parse(fault_spec))
            opt.fault = *plan;
        else
            set_cli_error(opt,
                          "invalid fault spec '" + fault_spec +
                              "' (throw:<flat>[:<attempts>] | "
                              "stall:<flat>:<seconds>[:<attempts>] | "
                              "exit:<flat>[:<code>])");
    }

    // Every option read above; anything else is a typo or a request (such
    // as --help) this binary does not serve.
    std::vector<std::string> known = {
        "instructions", "warmup", "seed", "replicates", "threads", "json",
        "csv", "quiet", "engine", "sampling", "shard", "workload", "capture",
        "manifest", "timeout", "retries", "resume", "durable",
        "checkpoint-every", "checkpoint-dir", "fault"};
    known.insert(known.end(), caller_flags.begin(), caller_flags.end());
    if (const auto name = args.unknown_option(known))
        set_cli_error(opt, "unknown option --" + *name +
                               " (README.md lists the flags)");
    return opt;
}

bool scan_resume_file(const app_options& opt, const sweep& s, resume_scan& out)
{
    out = resume_scan{};
    if (opt.json_path.empty() || opt.json_path == "-") {
        std::fprintf(stderr,
                     "--resume requires --json FILE (the file to scan and "
                     "extend)\n");
        return false;
    }

    std::string content;
    {
        std::ifstream in(opt.json_path, std::ios::binary);
        if (!in)
            return true; // nothing written yet: resume of a fresh shard
        content.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }

    // The unsharded job list: rows from sibling shards of the same sweep
    // may share the file and must verify (and be ignored) too.
    sweep full = s;
    full.shard(0, 1);
    row_scan scan;
    std::size_t kept = 0;
    std::string error;
    if (!scan_rows(full.build(), content, scan, kept, error)) {
        std::fprintf(stderr, "--resume: '%s' %s; refusing to resume\n",
                     opt.json_path.c_str(), error.c_str());
        return false;
    }
    if (kept < content.size()) {
        if (::truncate(opt.json_path.c_str(), off_t(kept)) != 0) {
            std::fprintf(stderr,
                         "--resume: cannot truncate torn tail of '%s'\n",
                         opt.json_path.c_str());
            return false;
        }
        out.truncated_tail = true;
    }

    out.rows = scan.rows_seen;
    for (auto& [flat, row] : scan.rows) {
        if (row.ok())
            out.completed.emplace(flat, std::move(row.result));
        else
            ++out.rerun_failed;
    }
    return true;
}

int run_app(int argc, const char* const* argv,
            std::vector<hier::system_config> configs,
            std::vector<wl::workload_profile> workloads,
            const render_fn& render, baseline_list baselines,
            const std::vector<std::string>& caller_flags)
{
    const cli_args args(argc, argv);
    const app_options opt = parse_app_options(args, caller_flags);
    if (opt.cli_error) {
        std::fprintf(stderr, "%s\n", opt.cli_error_text.c_str());
        return exit_cli_error;
    }

    std::uint64_t manifest_hash = 0;
    std::uint64_t instructions = opt.instructions;
    std::uint64_t warmup = opt.warmup;
    std::uint64_t base_seed = opt.seed;
    std::size_t replicates = opt.replicates;
    if (!opt.manifest_path.empty()) {
        // The manifest replaces the bench's axes wholesale — configs carry
        // their own engine/sampling values, so the flag-driven rewrite
        // below must not touch them.
        std::string manifest_error;
        const auto m = load_manifest(opt.manifest_path, &manifest_error);
        if (!m) {
            std::fprintf(stderr, "%s\n", manifest_error.c_str());
            return exit_cli_error;
        }
        configs = m->configs;
        workloads = m->workloads;
        instructions = m->instructions;
        warmup = m->warmup;
        base_seed = m->base_seed;
        replicates = m->replicates;
        manifest_hash = m->hash;
        baselines = m->baseline_config;
    } else {
        if (!opt.workload_override.empty())
            workloads = opt.workload_override;
        for (auto& config : configs) {
            config.engine_mode = opt.engine_mode;
            config.sampling = opt.sampling;
        }
    }
    if (!opt.capture_path.empty()) {
        // One capture file holds one run's lanes; a multi-job sweep would
        // overwrite it per job (and concurrently, with threads > 1).
        if (configs.size() * workloads.size() * replicates != 1 ||
            opt.shard_count != 1) {
            std::fprintf(stderr,
                         "--capture requires a single-job sweep (1 config x "
                         "1 workload, replicates=1, no shard); got %zu x %zu "
                         "x %zu\n",
                         configs.size(), workloads.size(), replicates);
            return exit_cli_error;
        }
        configs.front().capture_path = opt.capture_path;
    }

    sweep s;
    s.add_configs(configs)
        .add_workloads(workloads)
        .replicates(replicates)
        .instructions(instructions)
        .warmup(warmup)
        .base_seed(base_seed)
        .manifest_hash(manifest_hash)
        .shard(opt.shard_index, opt.shard_count);

    resume_scan scan;
    if (opt.resume) {
        if (!scan_resume_file(opt, s, scan))
            return exit_cli_error;
        if (!opt.quiet)
            std::fprintf(stderr,
                         "resume: %zu rows on disk, %zu reusable, %zu failed "
                         "rows will re-run%s\n",
                         scan.rows, scan.completed.size(), scan.rerun_failed,
                         scan.truncated_tail ? "; torn trailing line removed"
                                             : "");
    }

    run_options ro;
    ro.threads = opt.threads;
    ro.job_timeout_seconds = opt.timeout_seconds;
    ro.job_retries = opt.retries;
    ro.fault = opt.fault ? &*opt.fault : nullptr;
    ro.resume = opt.resume ? &scan.completed : nullptr;
    if (opt.checkpoint_every != 0) {
        ro.checkpoint_dir = opt.checkpoint_dir;
        ro.checkpoint_every = opt.checkpoint_every;
        ro.checkpoint_resume = opt.resume;
        if (::mkdir(opt.checkpoint_dir.c_str(), 0755) != 0 &&
            errno != EEXIST) {
            std::fprintf(stderr, "cannot create checkpoint dir '%s'\n",
                         opt.checkpoint_dir.c_str());
            return exit_cli_error;
        }
        // SIGTERM/SIGINT now latch instead of killing: each running job
        // saves a final snapshot at its next quiescent boundary and
        // finish_sweep() reports 128+signum, resumable with --resume.
        ckpt::install_signal_handlers();
    }

    sink_set sinks = make_sinks(opt);
    if (!sinks.ok)
        return exit_cli_error;

    // Weighted speedup, filled in-stream: each CMP row against its
    // partner's cores=1 row on the same workload/replicate, which has a
    // lower flat index and so is final by now. Sharded runs may lack the
    // partner cell; those rows keep WS = 0. Resumed rows already carry the
    // WS computed when they were first written.
    bool missing_baseline = false;
    if (!baselines.empty())
        ro.row_hook = [&](const job& j, hier::run_result& r,
                          const report& rep) {
            if (r.status != hier::run_status::ok ||
                configs[j.key.config].cores <= 1)
                return;
            const std::optional<std::size_t> partner =
                j.key.config < baselines.size() ? baselines[j.key.config]
                                                : std::nullopt;
            const hier::run_result* base =
                partner ? rep.find(*partner, j.key.workload, j.key.replicate)
                        : nullptr;
            if (base == nullptr || (base->status != hier::run_status::ok &&
                                    base->status !=
                                        hier::run_status::skipped_resumed)) {
                missing_baseline = true;
                return;
            }
            r.weighted_speedup = hier::weighted_speedup(r, *base);
        };

    const auto wall_start = std::chrono::steady_clock::now();
    const report rep = run_sweep(s, ro, sinks.sinks);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (missing_baseline)
        std::fprintf(stderr,
                     "some CMP rows have no cores=1 baseline row in this "
                     "run (outside this shard, failed, or absent from the "
                     "sweep); they carry weighted_speedup=0\n");

    if (!opt.quiet) {
        double job_seconds = 0.0, total_cycles = 0.0, total_instructions = 0.0;
        for (const auto& r : rep.results) {
            job_seconds += r.host_seconds;
            total_cycles += double(r.cycles);
            total_instructions += double(r.instructions);
        }
        std::printf("%zu jobs in %.2fs wall (%.2fs job time): %.2f Mcycles/s, "
                    "%.2f Minstr/s aggregate\n",
                    rep.jobs.size(), wall_seconds, job_seconds,
                    safe_ratio(total_cycles, job_seconds) * 1e-6,
                    safe_ratio(total_instructions, job_seconds) * 1e-6);
    }

    if (const int rc = finish_sweep(rep); rc >= 0)
        return rc;

    // Failures: every job still produced a row (fault isolation), but the
    // matrix is not trustworthy — name the failures, skip the tables, and
    // exit non-zero so drivers re-run (or --resume) the shard.
    if (report_failures(rep) > 0)
        return exit_job_failure;
    if (rep.sink_failures != 0)
        return exit_job_failure; // rows were lost even though jobs passed

    if (opt.shard_count > 1) {
        std::printf("shard %zu/%zu: ran %zu of %zu jobs; tables suppressed — "
                    "merge the per-shard JSON-lines outputs for the full "
                    "matrix\n",
                    opt.shard_index, opt.shard_count, rep.jobs.size(),
                    s.total_jobs());
        return exit_ok;
    }
    if (manifest_hash != 0) {
        // A bench's render callback assumes the bench's own config and
        // workload layout; a manifest-driven matrix is arbitrary, so the
        // rendered tables are the results store's job (tools/results_db.py).
        return exit_ok;
    }
    if (!opt.quiet && render)
        render(rep, opt);
    return exit_ok;
}

} // namespace lnuca::exp
