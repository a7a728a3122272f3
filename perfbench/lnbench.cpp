// Simulator benchmark program: runs one workload of the benchmark described
// in perfbench/README.md through the simulator's public API (hier::system,
// exp::run_sweep, exp::load_manifest, trace::make_scenario) and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), then
// one JSON result object as the last line of standard output.
//
//   lnbench --workload lnuca_core|dnuca_mesh|cmp_sharing|sweep_sampled
//           --seed N --seconds S --trace 0|1 --work-dir DIR [--scale F]
//
// Every run repeats the workload's fixed job set ("round") untraced a fixed
// number of times, sized so the run lasts about S seconds (see
// round_count()); an untraced run reports its end-to-end metrics over those
// rounds (see end_to_end()). A traced run then adds one traced round
// (spans kept in memory and written as Chrome trace-event JSON at exit) and
// the workload's extra probes, and reports the per-layer numbers. Spans
// live only in this file, around the calls into each layer.

#include "src/common/rng.h"
#include "src/exp/manifest.h"
#include "src/exp/runner.h"
#include "src/exp/sink.h"
#include "src/hier/presets.h"
#include "src/hier/system.h"
#include "src/trace/scenarios.h"
#include "src/trace/workload_spec.h"

#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace lnuca;
namespace fs = std::filesystem;
using bench_clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, job id. Recording is off (no allocation,
// no lock) in untraced runs; the elapsed time is always available because
// the metrics themselves are built from the same clock reads.
// ---------------------------------------------------------------------------

struct span {
    std::string name;
    double start = 0.0; ///< seconds since the tracer's origin
    double end = 0.0;
    long parent = -1;   ///< index into the span list, -1 = root
    long job = -1;      ///< flat job index, -1 = not job-scoped
    int tid = 1;        ///< 1 = main thread, 2 = sweep sink callbacks
};

class tracer {
public:
    explicit tracer(bool on) : on_(on), origin_(bench_clock::now()) {}

    double now() const
    {
        return std::chrono::duration<double>(bench_clock::now() - origin_)
            .count();
    }

    long open(const std::string& name, long parent, long job, int tid,
              double start)
    {
        if (!on_)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, start, start, parent, job, tid});
        return long(spans_.size()) - 1;
    }

    void close(long id, double end)
    {
        if (id < 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[std::size_t(id)].end = end;
    }

    const std::vector<span>& spans() const { return spans_; }

private:
    bool on_;
    bench_clock::time_point origin_;
    std::mutex mutex_;
    std::vector<span> spans_;
};

/// RAII span; finish() returns the duration in traced and untraced runs
/// alike.
class scope {
public:
    scope(tracer& t, const std::string& name, long parent = -1, long job = -1,
          int tid = 1)
        : t_(t), start_(t.now()), id_(t.open(name, parent, job, tid, start_))
    {
    }
    ~scope() { finish(); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    long id() const { return id_; }

    /// Close the span now (idempotent) and return its duration.
    double finish()
    {
        if (!closed_) {
            end_ = t_.now();
            t_.close(id_, end_);
            closed_ = true;
        }
        return end_ - start_;
    }

private:
    tracer& t_;
    double start_;
    double end_ = 0.0;
    long id_;
    bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Statistics and digests.
// ---------------------------------------------------------------------------

double median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes)
{
    for (const char c : bytes) {
        h ^= std::uint64_t(std::uint8_t(c));
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t fnv_basis = 0xcbf29ce484222325ULL;

/// The deterministic part of one row: the JSONL encoding with the three
/// host-timing fields zeroed (they measure the host, not the simulation).
std::string deterministic_line(const exp::job& j, hier::run_result r)
{
    r.host_seconds = 0.0;
    r.sim_cycles_per_second = 0.0;
    r.sim_instructions_per_second = 0.0;
    return exp::encode_json_line(j, r);
}

std::string hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

// ---------------------------------------------------------------------------
// Metrics output.
// ---------------------------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string json_number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Per-layer counters accumulated in a traced run (plus raw sums that the
/// derived ratios divide at the end).
using layer_map = std::map<std::string, double>;

/// Outcome of one job, whichever way it ran.
struct job_outcome {
    hier::run_result result;
    double setup_s = 0.0; ///< construction (streams, scenario, prewarm)
    double wall_s = 0.0;  ///< construction + run + teardown
    bool ok = true;
    std::string why;      ///< first failed check
};

/// Round = the workload's fixed job set, run once.
struct round_result {
    double wall_s = 0.0;
    double setup_s = 0.0;
    double run_sweep_s = 0.0; ///< sweep only: the exp::run_sweep call
    double sim_instructions = 0.0;
    double host_seconds = 0.0;
    std::vector<double> job_walls;
    std::size_t jobs = 0;
    std::size_t failed = 0;
    std::uint64_t digest = fnv_basis;
};

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    fs::path work_dir;
};

std::uint64_t scaled(std::uint64_t n, double scale)
{
    return std::max<std::uint64_t>(200, std::uint64_t(double(n) * scale));
}

hier::system_config preset(const std::string& name, unsigned cores)
{
    auto cfg = hier::presets::by_name(name);
    if (!cfg)
        throw std::runtime_error("unknown preset " + name);
    return cores > 1 ? hier::presets::cmp(*cfg, cores) : *cfg;
}

wl::workload_profile workload_named(const std::string& spec)
{
    auto p = trace::parse_workload_spec(spec);
    if (!p)
        throw std::runtime_error("unknown workload " + spec);
    return *p;
}

/// Direct job list of an exact workload: configs x workloads x replicates,
/// flat-ordered, seeds rng::split(seed, config, workload, replicate) - the
/// same derivation exp::sweep uses.
std::vector<exp::job> job_matrix(const options& o,
                                 const std::vector<hier::system_config>& cfgs,
                                 const std::vector<std::string>& workloads,
                                 std::size_t replicates,
                                 std::uint64_t instructions,
                                 std::uint64_t warmup)
{
    std::vector<exp::job> jobs;
    for (std::size_t c = 0; c < cfgs.size(); ++c)
        for (std::size_t w = 0; w < workloads.size(); ++w)
            for (std::size_t r = 0; r < replicates; ++r) {
                exp::job j;
                j.key = {c, w, r, jobs.size()};
                j.config = cfgs[c];
                j.workload = workload_named(workloads[w]);
                j.instructions = scaled(instructions, o.scale);
                j.warmup = scaled(warmup, o.scale);
                j.seed = rng::split(o.seed, c, w, r);
                jobs.push_back(std::move(j));
            }
    return jobs;
}

std::vector<exp::job> exact_jobs(const options& o)
{
    if (o.workload == "lnuca_core")
        return job_matrix(o, {preset("LN3-144KB", 1)},
                          {"456.hmmer", "401.bzip2", "429.mcf"}, 3, 200'000,
                          50'000);
    if (o.workload == "dnuca_mesh")
        return job_matrix(o, {preset("DN-4x8", 1)}, {"429.mcf", "456.hmmer"},
                          2, 8'000, 1'000);
    if (o.workload == "cmp_sharing")
        return job_matrix(
            o, {preset("LN3-144KB", 4), preset("L2-256KB", 4)},
            {"scenario:producer_consumer", "scenario:ping_pong"}, 1, 60'000,
            10'000);
    throw std::runtime_error("not an exact workload: " + o.workload);
}

// --- output checks -----------------------------------------------------------

/// Checks shared by every row: status ok; an exact run retired the
/// requested instructions on every core (commit may overshoot by less than
/// one commit group per core).
bool check_row(const exp::job& j, const hier::run_result& r, std::string& why)
{
    if (r.status != hier::run_status::ok) {
        why = std::string("status ") + hier::to_string(r.status) + ": " +
              r.error;
        return false;
    }
    if (!r.sampled) {
        const std::uint64_t want = j.instructions * r.cores;
        if (r.instructions < want || r.instructions > want + 16ULL * r.cores) {
            why = "retired " + std::to_string(r.instructions) +
                  " instructions, requested " + std::to_string(want);
            return false;
        }
    }
    if (r.instructions == 0 || r.cycles == 0) {
        why = "empty measurement";
        return false;
    }
    return true;
}

std::uint64_t load_service_sum(const hier::run_result& r)
{
    return r.loads_l1 + r.loads_fabric + r.loads_l2 + r.loads_l3 +
           r.loads_dnuca + r.loads_memory + r.loads_peer;
}

/// The per-level load-service counts must sum to the loads the cores
/// completed in the measured span.
bool check_loads(hier::system& s, const hier::run_result& r, std::string& why)
{
    std::uint64_t completed = 0;
    for (unsigned i = 0; i < s.cores(); ++i)
        completed += s.core(i).counters().get("loads_completed");
    if (completed == 0 || load_service_sum(r) != completed) {
        why = "load service levels sum to " +
              std::to_string(load_service_sum(r)) + ", cores completed " +
              std::to_string(completed);
        return false;
    }
    return true;
}

// --- per-layer harvest -------------------------------------------------------

void harvest(hier::system& s, const hier::run_result& r, double run_s,
             layer_map& m)
{
    const sim::engine& e = s.engine();
    m["sim.exec_cycles"] += double(e.cycles_executed());
    m["sim.skipped_cycles"] += double(e.cycles_skipped());
    m["sim.ff_cycles"] += double(e.cycles_fast_forwarded());
    m["raw.run_s"] += run_s;

    for (unsigned i = 0; i < s.cores(); ++i) {
        const cpu::ooo_core& core = s.core(i);
        const counter_set& cc = core.counters();
        m["cpu.committed"] += double(core.committed());
        m["cpu.loads"] += double(cc.get("loads"));
        m["cpu.dispatch_wait_cycles"] += double(cc.get("dispatch_wait_cycles"));
        m["cpu.branch_mispredicts"] += double(cc.get("branch_mispredicts"));
        const counter_set& l1 = s.l1(i).counters();
        m["mem.l1.accesses"] += double(l1.get("accesses"));
        m["mem.l1.read_miss"] += double(l1.get("read_miss"));
        m["mem.l1.mshr_full_stall"] += double(l1.get("mshr_full_stall"));
    }
    m["raw.instructions"] += double(r.instructions);
    m["raw.cycles"] += double(r.cycles);

    if (const mem::conventional_cache* l2 = s.l2()) {
        m["mem.l2.accesses"] += double(l2->counters().get("accesses"));
        m["mem.l2.read_miss"] += double(l2->counters().get("read_miss"));
    }
    if (const fabric::lnuca_cache* f = s.fabric()) {
        const counter_set& fc = f->counters();
        m["fabric.searches_requested"] += double(fc.get("searches_requested"));
        m["fabric.search_restarts"] += double(fc.get("search_restarts"));
        m["fabric.tile_tag_lookups"] += double(fc.get("tile_tag_lookups"));
        m["fabric.transport_hops"] += double(fc.get("transport_hops"));
        m["fabric.replacement_hops"] += double(fc.get("replacement_hops"));
        m["raw.transport_actual"] += double(f->transport_actual_cycles());
        m["raw.transport_min"] += double(f->transport_min_cycles());
    }
    if (const dnuca::dnuca_cache* d = s.dnuca()) {
        const counter_set& dc = d->counters();
        m["dnuca.read_probes"] += double(dc.get("read_probes"));
        m["dnuca.bank_lookups"] += double(dc.get("bank_lookups"));
        m["dnuca.promotions"] += double(dc.get("promotions"));
        m["dnuca.flits_injected"] += double(dc.get("flits_injected"));
        const noc::mesh_network& mesh = d->mesh();
        for (int y = 0; y < mesh.height(); ++y)
            for (int x = 0; x < mesh.width(); ++x) {
                const counter_set& rc = mesh.at(noc::coord{x, y}).counters();
                m["noc.flits_forwarded"] += double(rc.get("forwarded"));
                m["noc.vc_alloc_stall"] += double(rc.get("vc_alloc_stall"));
                m["noc.credit_stall"] += double(rc.get("credit_stall"));
            }
        m["noc.router_steps"] += double(e.cycles_executed()) *
                                 double(mesh.width() * mesh.height());
    }
    if (const coh::coherence_hub* hub = s.hub()) {
        const counter_set& hc = hub->counters();
        m["coh.reads"] += double(hc.get("reads"));
        m["coh.rfos"] += double(hc.get("rfos"));
        m["coh.upgrades"] += double(hc.get("upgrades"));
        m["coh.invalidations_sent"] += double(hc.get("invalidations_sent"));
        m["coh.c2c_transfers"] += double(hc.get("c2c_transfers"));
        m["raw.coh_retries"] +=
            double(hc.get("busy_retries") + hc.get("snoop_retries"));
    }
    m["hier.measure_s"] += r.host_seconds;
    m["hier.warmup_s"] += std::max(0.0, run_s - r.host_seconds);
}

/// Build, run, check and tear down one job in this thread.
job_outcome run_direct(const exp::job& j, tracer& t, long parent,
                       layer_map* layers)
{
    job_outcome out;
    scope job_span(t, "bench.job", parent, long(j.key.flat));
    std::unique_ptr<hier::system> sys;
    try {
        {
            scope build(t, "hier.build", job_span.id(), long(j.key.flat));
            sys = std::make_unique<hier::system>(j.config, j.workload, j.seed);
            out.setup_s = build.finish();
        }
        double run_s = 0.0;
        {
            scope run(t, "hier.run", job_span.id(), long(j.key.flat));
            out.result = sys->run(j.instructions, j.warmup);
            run_s = run.finish();
        }
        // Sampled rows extrapolate their load counts; only exact rows can
        // be reconciled against the cores' completed loads.
        out.ok = check_row(j, out.result, out.why) &&
                 (out.result.sampled ||
                  check_loads(*sys, out.result, out.why));
        if (layers != nullptr) {
            (*layers)["hier.build_s"] += out.setup_s;
            harvest(*sys, out.result, run_s, *layers);
        }
        {
            scope teardown(t, "hier.teardown", job_span.id(),
                           long(j.key.flat));
            sys.reset();
        }
    } catch (const std::exception& e) {
        out.ok = false;
        out.why = e.what();
    }
    out.wall_s = job_span.finish();
    return out;
}

void note_failure(const exp::job& j, const job_outcome& o)
{
    std::fprintf(stderr, "FAILED job %zu (%s x %s, seed %llu): %s\n",
                 j.key.flat, j.config.name.c_str(), j.workload.name.c_str(),
                 (unsigned long long)j.seed, o.why.c_str());
}

round_result run_exact_round(const std::vector<exp::job>& jobs, tracer& t,
                             long parent, layer_map* layers)
{
    round_result rr;
    scope round(t, "bench.round", parent);
    for (const exp::job& j : jobs) {
        const job_outcome o = run_direct(j, t, round.id(), layers);
        ++rr.jobs;
        if (!o.ok) {
            ++rr.failed;
            note_failure(j, o);
        }
        rr.setup_s += o.setup_s;
        rr.sim_instructions += double(o.result.instructions);
        rr.host_seconds += o.result.host_seconds;
        rr.job_walls.push_back(o.wall_s);
        rr.digest = fnv1a(rr.digest, deterministic_line(j, o.result));
    }
    rr.wall_s = round.finish();
    return rr;
}

// --- the sampled manifest sweep ---------------------------------------------

struct sweep_plan {
    std::size_t replicates = 7;
    std::uint64_t instructions = 200'000;
    std::uint64_t warmup = 25'000;
    std::string sampling = "periodic:2000:40000:1000";
    std::uint64_t checkpoint_every = 100'000;
    unsigned workers = 2;
};

sweep_plan plan_for(const options& o)
{
    sweep_plan p;
    p.instructions = scaled(p.instructions, o.scale);
    p.warmup = scaled(p.warmup, o.scale);
    p.checkpoint_every = scaled(p.checkpoint_every, o.scale);
    if (o.scale < 1.0) {
        p.replicates = 1;
        p.sampling = "periodic:200:2000:100";
    }
    return p;
}

std::string manifest_text(const options& o, const sweep_plan& p)
{
    std::ostringstream m;
    m << "{\n"
      << "  \"schema\": \"lnuca_sweep/1\",\n"
      << "  \"name\": \"perfbench-sweep-sampled\",\n"
      << "  \"presets\": [\"L2-256KB\", \"LN3-144KB\"],\n"
      << "  \"cores\": [1, 2],\n"
      << "  \"sampling\": [\"" << p.sampling << "\"],\n"
      << "  \"workloads\": [\"429.mcf\", \"456.hmmer\", \"403.gcc\", "
         "\"scenario:producer_consumer\"],\n"
      << "  \"replicates\": " << p.replicates << ",\n"
      << "  \"base_seed\": " << o.seed << ",\n"
      << "  \"instructions\": " << p.instructions << ",\n"
      << "  \"warmup\": " << p.warmup << "\n"
      << "}\n";
    return m.str();
}

/// Forwards to the durable JSONL sink and times every callback.
class timed_sink final : public exp::sink {
public:
    timed_sink(exp::sink& inner, tracer& t, long parent)
        : inner_(inner), t_(t), parent_(parent)
    {
    }

    void begin(std::size_t job_count) override
    {
        scope s(t_, "exp.sink", parent_, -1, 2);
        inner_.begin(job_count);
        seconds_ += s.finish();
    }
    void consume(const exp::job& j, const hier::run_result& r) override
    {
        scope s(t_, "exp.sink", parent_, long(j.key.flat), 2);
        inner_.consume(j, r);
        seconds_ += s.finish();
    }
    void finish() override
    {
        scope s(t_, "exp.sink", parent_, -1, 2);
        inner_.finish();
        seconds_ += s.finish();
    }

    double seconds() const { return seconds_; }

private:
    exp::sink& inner_;
    tracer& t_;
    long parent_;
    double seconds_ = 0.0; ///< callbacks are serialised by the runner
};

/// Counts completed checkpoint saves (atomic renames into the directory).
class save_counter {
public:
    explicit save_counter(const fs::path& dir)
    {
        fd_ = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
        if (fd_ >= 0 && inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO) < 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~save_counter()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    save_counter(const save_counter&) = delete;
    save_counter& operator=(const save_counter&) = delete;

    /// Saves observed so far; -1 when the watch could not be set up.
    long drain()
    {
        if (fd_ < 0)
            return -1;
        alignas(inotify_event) char buf[16384];
        for (;;) {
            const ssize_t n = ::read(fd_, buf, sizeof buf);
            if (n <= 0)
                break;
            for (ssize_t off = 0; off < n;) {
                const auto* ev =
                    reinterpret_cast<const inotify_event*>(buf + off);
                if (ev->len > 0 &&
                    std::string(ev->name).find(".ckpt") != std::string::npos)
                    ++saves_;
                off += ssize_t(sizeof(inotify_event) + ev->len);
            }
        }
        return saves_;
    }

private:
    int fd_ = -1;
    long saves_ = 0;
};

struct sweep_round_extra {
    double run_sweep_s = 0.0;
    double manifest_s = 0.0;
    double sink_s = 0.0;
    double sink_bytes = 0.0;
    double job_seconds = 0.0; ///< sum of per-job walls
    long saves = -1;
    std::vector<hier::run_result> rows;
};

round_result run_sweep_round(const options& o, const sweep_plan& plan,
                             const fs::path& manifest_path, bool checkpointing,
                             tracer& t, long parent, layer_map* layers,
                             sweep_round_extra* extra)
{
    round_result rr;
    scope round(t, checkpointing ? "bench.round" : "bench.round_no_ckpt",
                parent);

    // Set-up: manifest load + expansion, then the same system constructions
    // run_sweep performs internally, timed one by one for setup_s. The
    // program itself never builds them twice, so wall_s leaves this
    // pre-build out: it is the manifest load plus the run_sweep call.
    exp::sweep s;
    std::vector<exp::job> jobs;
    double manifest_s = 0.0;
    {
        scope ms(t, "exp.manifest", round.id());
        std::string error;
        auto loaded = exp::load_manifest(manifest_path.string(), &error);
        if (!loaded)
            throw std::runtime_error("manifest: " + error);
        s = loaded->to_sweep();
        jobs = s.build();
        manifest_s = ms.finish();
    }
    std::vector<double> build_s(jobs.size(), 0.0);
    {
        scope setup(t, "exp.setup", round.id());
        for (const exp::job& j : jobs) {
            scope b(t, "hier.build", setup.id(), long(j.key.flat));
            hier::system sys(j.config, j.workload, j.seed);
            build_s[j.key.flat] = b.finish();
        }
    }
    rr.setup_s = manifest_s;
    for (double b : build_s)
        rr.setup_s += b;

    const fs::path rows_path = o.work_dir / "sweep_rows.jsonl";
    const fs::path ckpt_dir = o.work_dir / "sweep_ckpt";
    fs::remove(rows_path);
    fs::create_directories(ckpt_dir);

    exp::run_options opt(plan.workers);
    if (checkpointing) {
        opt.checkpoint_dir = ckpt_dir.string();
        opt.checkpoint_every = plan.checkpoint_every;
    }
    std::unique_ptr<save_counter> saves;
    if (layers != nullptr && checkpointing)
        saves = std::make_unique<save_counter>(ckpt_dir);

    exp::report rep;
    double sweep_s = 0.0;
    double sink_s = 0.0;
    {
        scope sw(t, "exp.run_sweep", round.id());
        exp::jsonl_sink jsonl(rows_path.string(), 16, 16);
        if (!jsonl.ok())
            throw std::runtime_error("cannot open " + rows_path.string());
        timed_sink timed(jsonl, t, sw.id());
        rep = exp::run_sweep(s, opt, {&timed});
        sink_s = timed.seconds();
        sweep_s = sw.finish();
    }

    // Output checks: every row ok and sampled, the durable file holds
    // exactly the report's rows (decoded and re-encoded bit-identically),
    // and no checkpoint survives a completed job.
    std::vector<std::string> file_lines;
    {
        std::ifstream in(rows_path);
        std::string line;
        while (std::getline(in, line))
            file_lines.push_back(line);
    }
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
        const exp::job& j = rep.jobs[i];
        const hier::run_result& r = rep.results[i];
        job_outcome o2;
        o2.ok = check_row(j, r, o2.why);
        if (o2.ok && (!r.sampled || r.sampled_windows == 0)) {
            o2.ok = false;
            o2.why = "row is not a sampled measurement";
        }
        if (o2.ok) {
            const auto decoded = i < file_lines.size()
                                     ? exp::decode_json_line(file_lines[i])
                                     : std::nullopt;
            if (!decoded || deterministic_line(j, decoded->result) !=
                                deterministic_line(j, r)) {
                o2.ok = false;
                o2.why = "JSONL row does not round-trip the report row";
            }
        }
        ++rr.jobs;
        if (!o2.ok) {
            ++rr.failed;
            note_failure(j, o2);
        }
        // Jobs run inside the pool, so a job's time is assembled from its
        // pre-built construction and its row's host_seconds.
        const double job_wall = build_s[j.key.flat] + r.host_seconds;
        rr.job_walls.push_back(job_wall);
        rr.sim_instructions += double(r.instructions);
        rr.host_seconds += r.host_seconds;
        rr.digest = fnv1a(rr.digest, deterministic_line(j, r));
        if (extra != nullptr)
            extra->job_seconds += job_wall;
    }
    if (file_lines.size() != rep.jobs.size() || rep.sink_failures != 0 ||
        rep.abandoned_workers != 0) {
        ++rr.failed;
        std::fprintf(stderr, "FAILED sweep: %zu rows on disk for %zu jobs, "
                             "%zu sink failures, %zu abandoned workers\n",
                     file_lines.size(), rep.jobs.size(), rep.sink_failures,
                     rep.abandoned_workers);
    }
    if (fs::exists(ckpt_dir) && !fs::is_empty(ckpt_dir)) {
        ++rr.failed;
        std::fprintf(stderr, "FAILED sweep: checkpoints left behind in %s\n",
                     ckpt_dir.c_str());
    }
    if (extra != nullptr) {
        extra->run_sweep_s = sweep_s;
        extra->manifest_s = manifest_s;
        extra->sink_s = sink_s;
        extra->sink_bytes = double(fs::file_size(rows_path));
        extra->saves = saves ? saves->drain() : -1;
        extra->rows = rep.results;
    }
    rr.run_sweep_s = sweep_s;
    rr.wall_s = manifest_s + sweep_s;
    return rr;
}

// ---------------------------------------------------------------------------
// Traced-run reporting: per-layer self-time table and Chrome trace JSON.
// ---------------------------------------------------------------------------

void print_span_table(const tracer& t)
{
    const auto& spans = t.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const span& s : spans)
        if (s.parent >= 0)
            child[std::size_t(s.parent)] += s.end - s.start;
    struct agg {
        std::size_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, agg> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        agg& a = by_name[spans[i].name];
        const double d = spans[i].end - spans[i].start;
        ++a.count;
        a.total += d;
        a.self += d - child[i];
    }
    std::printf("%-22s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const auto& [name, a] : by_name)
        std::printf("%-22s %8zu %12.6f %12.6f\n", name.c_str(), a.count,
                    a.total, a.self);
}

void write_chrome_trace(const tracer& t, const fs::path& path)
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    const auto& spans = t.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
            << s.tid << ",\"ts\":" << json_number(s.start * 1e6)
            << ",\"dur\":" << json_number((s.end - s.start) * 1e6)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"job\":" << s.job << "}}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

// ---------------------------------------------------------------------------
// Main flow.
// ---------------------------------------------------------------------------

void usage()
{
    std::fprintf(stderr,
                 "usage: lnbench --workload lnuca_core|dnuca_mesh|cmp_sharing|"
                 "sweep_sampled --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--scale F]\n");
}

bool parse_args(int argc, char** argv, options& o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--seconds")
            o.seconds = std::stod(val);
        else if (key == "--trace")
            o.trace = val == "1";
        else if (key == "--scale")
            o.scale = std::stod(val);
        else if (key == "--work-dir")
            o.work_dir = val;
        else
            return false;
    }
    if (argc % 2 != 1)
        return false;
    static const std::vector<std::string> known = {
        "lnuca_core", "dnuca_mesh", "cmp_sharing", "sweep_sampled"};
    return std::find(known.begin(), known.end(), o.workload) != known.end() &&
           !o.work_dir.empty() && o.seconds > 0.0 && o.scale > 0.0;
}

struct run_totals {
    std::vector<round_result> rounds;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool digests_agree = true;

    void add(round_result r)
    {
        attempted += r.jobs;
        failed += r.failed;
        if (!rounds.empty() && r.digest != rounds.front().digest)
            digests_agree = false;
        rounds.push_back(std::move(r));
    }
};

/// One round of whichever workload `o` names.
round_result one_round(const options& o, const std::vector<exp::job>& jobs,
                       const fs::path& manifest_path, tracer& t, long parent,
                       layer_map* layers, sweep_round_extra* extra)
{
    if (o.workload == "sweep_sampled")
        return run_sweep_round(o, plan_for(o), manifest_path, true, t, parent,
                               layers, extra);
    return run_exact_round(jobs, t, parent, layers);
}

/// Untraced rounds per run. The count depends only on the workload and
/// --seconds, never on how fast the code runs, so every commit takes the
/// fastest of the same number of repeats. The nominal round times (round 0
/// included; the sweep's pre-build and checks too) are the slower of the
/// host measurements in perfbench/README.md, so a run lasts at most about
/// --seconds there; round 0 is the warm-up.
std::size_t round_count(const options& o)
{
    static const std::map<std::string, double> nominal_round_s = {
        {"lnuca_core", 1.8},
        {"dnuca_mesh", 2.7},
        {"cmp_sharing", 1.8},
        {"sweep_sampled", 5.0},
    };
    return std::max<std::size_t>(
        2, std::size_t(o.seconds / nominal_round_s.at(o.workload)));
}

/// Every round runs the identical job set (their digests must agree), so
/// rounds differ only by interference from other work on the host, which
/// can only add time. Times are therefore the fastest repeat: of the round
/// for wall_s and sim_mips, of each job for the job percentiles. setup_s
/// is the median over rounds. Round 0 warms the host (page faults,
/// allocator growth, caches) and is checked but not timed whenever a later
/// round exists.
std::vector<metric> end_to_end(const run_totals& totals)
{
    const std::size_t first = totals.rounds.size() > 1 ? 1 : 0;
    double wall = 0.0, mips = 0.0;
    std::vector<double> setups;
    std::vector<double> job_walls(totals.rounds.front().job_walls.size(), 0.0);
    for (std::size_t i = first; i < totals.rounds.size(); ++i) {
        const round_result& r = totals.rounds[i];
        wall = i == first ? r.wall_s : std::min(wall, r.wall_s);
        mips = std::max(mips, ratio(r.sim_instructions, r.host_seconds) / 1e6);
        setups.push_back(r.setup_s);
        for (std::size_t j = 0; j < job_walls.size(); ++j)
            job_walls[j] = i == first ? r.job_walls[j]
                                      : std::min(job_walls[j], r.job_walls[j]);
    }
    return {
        {"wall_s", wall, "s"},
        {"sim_mips", mips, "Minstr/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"job_s_p50", quantile(job_walls, 0.5), "s"},
        {"job_s_p90", quantile(job_walls, 0.9), "s"},
    };
}

/// Held-back sampling accuracy (traced sweep run only): sampled vs exact IPC
/// on proxies and a seed the sweep never uses. Returns the median |error| %.
double sampling_accuracy(const options& o, const sweep_plan& plan, tracer& t,
                         long parent, layer_map& layers, run_totals& totals)
{
    scope acc(t, "sample.accuracy", parent);
    const auto sampling = hier::parse_sampling_spec(plan.sampling);
    if (!sampling)
        throw std::runtime_error("bad sampling spec " + plan.sampling);
    const std::uint64_t held_back_seed =
        rng::split(o.seed ^ 0x9e3779b97f4a7c15ULL, 0xacc, 0, 0);
    std::vector<double> errors;
    std::size_t flat = 0;
    for (const char* cfg_name : {"L2-256KB", "LN3-144KB"})
        for (const char* wl_name : {"470.lbm", "445.gobmk"}) {
            exp::job exact;
            exact.key = {0, 0, 0, flat++};
            exact.config = preset(cfg_name, 1);
            exact.workload = workload_named(wl_name);
            exact.instructions = plan.instructions;
            exact.warmup = plan.warmup;
            exact.seed = held_back_seed;
            exp::job sampled = exact;
            sampled.key.flat = flat++;
            sampled.config.sampling = *sampling;
            const job_outcome e = run_direct(exact, t, acc.id(), &layers);
            const job_outcome s = run_direct(sampled, t, acc.id(), &layers);
            totals.attempted += 2;
            if (!e.ok) {
                ++totals.failed;
                note_failure(exact, e);
            }
            if (!s.ok) {
                ++totals.failed;
                note_failure(sampled, s);
            }
            if (e.ok && s.ok)
                errors.push_back(100.0 *
                                 std::fabs(s.result.ipc - e.result.ipc) /
                                 e.result.ipc);
        }
    return median(errors);
}

/// Time scenario generation on its own (it otherwise runs inside system
/// construction): the same make_scenario call per scenario job.
void time_scenarios(const std::vector<exp::job>& jobs, tracer& t, long parent,
                    layer_map& layers)
{
    for (const exp::job& j : jobs) {
        if (j.workload.scenario.empty())
            continue;
        trace::scenario_params params;
        params.cores = std::max(1u, j.config.cores);
        params.seed = j.seed;
        scope s(t, "trace.scenario_gen", parent, long(j.key.flat));
        (void)trace::make_scenario(j.workload.scenario, params);
        layers["trace.scenario_gen_s"] += s.finish();
    }
}

std::vector<metric> per_layer(layer_map& m)
{
    const double exec = m["sim.exec_cycles"];
    const double skipped = m["sim.skipped_cycles"];
    std::vector<metric> out = {
        {"sim.exec_cycles", exec, "cycles"},
        {"sim.skipped_cycles", skipped, "cycles"},
        {"sim.ff_cycles", m["sim.ff_cycles"], "cycles"},
        {"sim.skip_frac", ratio(skipped, exec + skipped), "frac"},
        {"sim.host_ns_per_exec_cycle", ratio(m["raw.run_s"] * 1e9, exec),
         "ns"},
        {"cpu.committed", m["cpu.committed"], "instr"},
        {"cpu.ipc", ratio(m["raw.instructions"], m["raw.cycles"]),
         "instr/cycle"},
        {"cpu.loads", m["cpu.loads"], "count"},
        {"cpu.dispatch_wait_cycles", m["cpu.dispatch_wait_cycles"], "cycles"},
        {"cpu.branch_mispredicts", m["cpu.branch_mispredicts"], "count"},
        {"mem.l1.accesses", m["mem.l1.accesses"], "count"},
        {"mem.l1.read_miss", m["mem.l1.read_miss"], "count"},
        {"mem.l1.mshr_full_stall", m["mem.l1.mshr_full_stall"], "count"},
        {"mem.l2.accesses", m["mem.l2.accesses"], "count"},
        {"mem.l2.read_miss", m["mem.l2.read_miss"], "count"},
        {"fabric.searches_requested", m["fabric.searches_requested"], "count"},
        {"fabric.search_restarts", m["fabric.search_restarts"], "count"},
        {"fabric.tile_tag_lookups", m["fabric.tile_tag_lookups"], "count"},
        {"fabric.transport_hops", m["fabric.transport_hops"], "count"},
        {"fabric.replacement_hops", m["fabric.replacement_hops"], "count"},
        {"fabric.transport_ratio",
         ratio(m["raw.transport_actual"], m["raw.transport_min"]), "ratio"},
        {"dnuca.read_probes", m["dnuca.read_probes"], "count"},
        {"dnuca.bank_lookups", m["dnuca.bank_lookups"], "count"},
        {"dnuca.promotions", m["dnuca.promotions"], "count"},
        {"dnuca.flits_injected", m["dnuca.flits_injected"], "count"},
        {"noc.flits_forwarded", m["noc.flits_forwarded"], "count"},
        {"noc.vc_alloc_stall", m["noc.vc_alloc_stall"], "count"},
        {"noc.credit_stall", m["noc.credit_stall"], "count"},
        {"noc.router_steps", m["noc.router_steps"], "count"},
        {"noc.useful_frac",
         ratio(m["noc.flits_forwarded"], m["noc.router_steps"]), "frac"},
        {"coh.reads", m["coh.reads"], "count"},
        {"coh.rfos", m["coh.rfos"], "count"},
        {"coh.upgrades", m["coh.upgrades"], "count"},
        {"coh.invalidations_sent", m["coh.invalidations_sent"], "count"},
        {"coh.c2c_transfers", m["coh.c2c_transfers"], "count"},
        {"coh.retry_frac",
         ratio(m["raw.coh_retries"],
               m["coh.reads"] + m["coh.rfos"] + m["coh.upgrades"]),
         "frac"},
        {"hier.build_s", m["hier.build_s"], "s"},
        {"hier.warmup_s", m["hier.warmup_s"], "s"},
        {"hier.measure_s", m["hier.measure_s"], "s"},
        {"trace.scenario_gen_s", m["trace.scenario_gen_s"], "s"},
        {"sample.windows", m["sample.windows"], "count"},
        {"sample.detail_frac", m["sample.detail_frac"], "frac"},
        {"sample.ipc_ci95_pct", m["sample.ipc_ci95_pct"], "%"},
        {"sample.abs_err_pct", m["sample.abs_err_pct"], "%"},
        {"exp.manifest_s", m["exp.manifest_s"], "s"},
        {"exp.pool_busy_frac", m["exp.pool_busy_frac"], "frac"},
        {"exp.sink_s", m["exp.sink_s"], "s"},
        {"exp.sink_bytes", m["exp.sink_bytes"], "B"},
        {"ckpt.saves", m["ckpt.saves"], "count"},
        {"ckpt.overhead_s", m["ckpt.overhead_s"], "s"},
        {"bench.trace_overhead_frac", m["bench.trace_overhead_frac"], "frac"},
    };
    return out;
}

int run(const options& o)
{
    fs::create_directories(o.work_dir);
    tracer t(o.trace);
    run_totals totals;

    std::vector<exp::job> jobs;
    fs::path manifest_path;
    if (o.workload == "sweep_sampled") {
        manifest_path = o.work_dir / "sweep_manifest.json";
        std::ofstream(manifest_path) << manifest_text(o, plan_for(o));
    } else {
        jobs = exact_jobs(o);
    }

    // The untraced rounds: the measurement itself, or the reference the
    // traced round is compared against. Code several times slower than the
    // nominal round times stops early rather than overrunning the run.
    tracer off(false);
    const std::size_t want = round_count(o);
    const double limit = 4.0 * o.seconds;
    while (totals.rounds.size() < want &&
           (totals.rounds.size() < 2 || off.now() < limit))
        totals.add(
            one_round(o, jobs, manifest_path, off, -1, nullptr, nullptr));

    std::vector<metric> metrics;
    if (!o.trace) {
        metrics = end_to_end(totals);
    } else {
        std::vector<double> plain_walls;
        for (std::size_t i = totals.rounds.size() > 1 ? 1 : 0;
             i < totals.rounds.size(); ++i)
            plain_walls.push_back(totals.rounds[i].wall_s);
        const double plain_wall = median(plain_walls);
        const std::size_t untraced = totals.rounds.size();
        layer_map layers;
        sweep_round_extra extra;
        totals.add(one_round(o, jobs, manifest_path, t, -1, &layers, &extra));
        const round_result& traced = totals.rounds.back();
        layers["bench.trace_overhead_frac"] =
            ratio(traced.wall_s - plain_wall, plain_wall);

        scope probes(t, "bench.probes");
        std::vector<exp::job> scenario_jobs = jobs;
        if (o.workload == "sweep_sampled") {
            const sweep_plan plan = plan_for(o);
            layers["exp.manifest_s"] = extra.manifest_s;
            layers["exp.sink_s"] = extra.sink_s;
            layers["exp.sink_bytes"] = extra.sink_bytes;
            layers["exp.pool_busy_frac"] = ratio(
                extra.job_seconds, extra.run_sweep_s * double(plan.workers));
            layers["ckpt.saves"] = double(std::max(0L, extra.saves));
            double windows = 0, measured = 0, retired = 0;
            std::vector<double> ci;
            for (const hier::run_result& r : extra.rows) {
                windows += double(r.sampled_windows);
                measured += double(r.measured_instructions);
                retired += double(r.instructions);
                ci.push_back(100.0 * ratio(r.ipc_ci95, r.ipc));
            }
            layers["sample.windows"] = windows;
            layers["sample.detail_frac"] = ratio(measured, retired);
            layers["sample.ipc_ci95_pct"] = median(ci);

            // Checkpoint overhead: the same jobs without checkpoint_every,
            // repeated as often as the timed untraced rounds; the fastest
            // run_sweep of each variant is compared.
            double with_ckpt = 0.0, without_ckpt = 0.0;
            for (std::size_t i = 1; i < untraced; ++i) {
                with_ckpt = i == 1 ? totals.rounds[i].run_sweep_s
                                   : std::min(with_ckpt,
                                              totals.rounds[i].run_sweep_s);
                round_result nc = run_sweep_round(o, plan, manifest_path,
                                                  false, t, probes.id(),
                                                  nullptr, nullptr);
                totals.attempted += nc.jobs;
                totals.failed += nc.failed;
                without_ckpt = i == 1 ? nc.run_sweep_s
                                      : std::min(without_ckpt, nc.run_sweep_s);
            }
            layers["ckpt.overhead_s"] = with_ckpt - without_ckpt;
            layers["sample.abs_err_pct"] =
                sampling_accuracy(o, plan, t, probes.id(), layers, totals);
            // The sweep's own constructions, not the held-back set's.
            layers["hier.build_s"] = traced.setup_s - extra.manifest_s;

            std::string error;
            if (auto m = exp::load_manifest(manifest_path.string(), &error))
                scenario_jobs = m->to_sweep().build();
        }
        time_scenarios(scenario_jobs, t, probes.id(), layers);
        probes.finish();

        metrics = per_layer(layers);
        print_span_table(t);
        const fs::path trace_path =
            o.work_dir / ("trace-" + o.workload + "-seed" +
                          std::to_string(o.seed) + ".json");
        write_chrome_trace(t, trace_path);
        std::printf("trace written to %s (%zu spans)\n", trace_path.c_str(),
                    t.spans().size());
    }

    for (std::size_t i = 0; i < totals.rounds.size(); ++i) {
        const round_result& r = totals.rounds[i];
        std::printf("round %zu wall_s %.6f setup_s %.6f sim_mips %.6f\n", i,
                    r.wall_s, r.setup_s,
                    ratio(r.sim_instructions, r.host_seconds) / 1e6);
    }
    if (!totals.digests_agree)
        std::fprintf(stderr, "FAILED: rounds of one job set produced "
                             "different simulated results\n");
    const bool correct = totals.failed == 0 && totals.digests_agree;
    std::printf("workload %s seed %llu rounds %zu\n", o.workload.c_str(),
                (unsigned long long)o.seed, totals.rounds.size());
    std::printf("sim_digest %s\n", hex64(totals.rounds.front().digest).c_str());
    std::printf("jobs %zu count\n", totals.attempted);
    std::printf("jobs_failed %zu count\n", totals.failed);
    for (const metric& m : metrics)
        std::printf("%s %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(totals.attempted);
    json += ", \"failed\": " + std::to_string(totals.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                json_number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    options o;
    try {
        if (!parse_args(argc, argv, o)) {
            usage();
            return 2;
        }
        return run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lnbench: %s\n", e.what());
        return 1;
    }
}
