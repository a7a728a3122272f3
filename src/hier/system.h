// Whole-system assembly: core + hierarchy + memory on one engine, plus the
// run driver (warm-up, measurement window, statistics harvesting).
#pragma once

#include "src/ckpt/archive.h"
#include "src/coh/coherence_hub.h"
#include "src/cpu/ooo_core.h"
#include "src/dnuca/dnuca_cache.h"
#include "src/fabric/lnuca_cache.h"
#include "src/hier/presets.h"
#include "src/mem/bus.h"
#include "src/mem/cache.h"
#include "src/mem/main_memory.h"
#include "src/power/energy_model.h"
#include "src/sim/engine.h"
#include "src/workloads/synthetic.h"

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace lnuca::trace {
class trace_data;
class trace_writer;
} // namespace lnuca::trace

namespace lnuca::hier {

/// Outcome of one experiment job. `ok` rows carry real measurements; the
/// failure states carry a zeroed result plus run_result::error, so a sweep
/// with a crashing or stalled job still produces one structured row per
/// job instead of aborting (src/exp/runner.cpp threads these through the
/// report, every sink, and decode_json_line).
enum class run_status : std::uint8_t {
    ok = 0,          ///< measured normally
    failed,          ///< the job threw; error holds the exception text
    timed_out,       ///< exceeded the per-job soft timeout (worker abandoned)
    skipped_resumed, ///< --resume: row reloaded from the existing output
};

constexpr const char* to_string(run_status s)
{
    switch (s) {
    case run_status::ok: return "ok";
    case run_status::failed: return "failed";
    case run_status::timed_out: return "timed_out";
    case run_status::skipped_resumed: return "skipped_resumed";
    }
    return "unknown";
}

/// Everything a bench/table needs from one (config, workload) run.
struct run_result {
    std::string config_name;
    std::string workload_name;
    bool floating_point = false;

    // Job outcome (see run_status). Failure rows keep the identity fields
    // and host_seconds but zero every measurement; `error` is empty unless
    // status is failed/timed_out.
    run_status status = run_status::ok;
    std::string error;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;

    // Read-hit distribution (Table III): conventional L2 hits, or per
    // L-NUCA level read hits (index = level, 2-based).
    std::uint64_t l2_read_hits = 0;
    std::vector<std::uint64_t> fabric_read_hits;

    // Transport latency accounting (Table III right).
    std::uint64_t transport_actual = 0;
    std::uint64_t transport_min = 0;

    // Contention restarts (Section III-C: "rarely occurs" - verified).
    std::uint64_t search_restarts = 0;
    std::uint64_t searches = 0;

    power::energy_breakdown energy;

    // Load service distribution as seen by the core.
    std::uint64_t loads_l1 = 0;
    std::uint64_t loads_fabric = 0;
    std::uint64_t loads_l2 = 0;
    std::uint64_t loads_l3 = 0;
    std::uint64_t loads_dnuca = 0;
    std::uint64_t loads_memory = 0;
    std::uint64_t loads_peer = 0; ///< CMP: cache-to-cache from a peer L1
    double avg_load_latency = 0.0;

    // CMP mode (cores > 1): per-core committed-instruction IPC in core
    // order, and - when the caller supplies a single-core baseline (see
    // weighted_speedup()) - the multiprogrammed weighted speedup
    // sum_i(IPC_i / IPC_single_i). Single-core runs leave cores == 1,
    // per_core_ipc empty and weighted_speedup 0.
    std::uint32_t cores = 1;
    std::vector<double> per_core_ipc;
    double weighted_speedup = 0.0;

    // Sampled execution (see sampling_config). When `sampled` is true,
    // cycles/ipc/energy/loads are statistical estimates extrapolated from
    // the measured windows; when false they are exact measurements and the
    // sampling fields below are zero.
    bool sampled = false;
    std::uint64_t sampled_windows = 0;      ///< detailed windows measured
    std::uint64_t measured_instructions = 0; ///< instructions inside windows
    double ipc_ci95 = 0.0; ///< half-width of the 95% CI around `ipc`

    // Host-side throughput of the measurement window. These are the only
    // fields that are *not* deterministic - exclude them from bit-identity
    // comparisons (exp_test/hier_test do).
    double host_seconds = 0.0;
    double sim_cycles_per_second = 0.0;    ///< cycles / host_seconds
    double sim_instructions_per_second = 0.0;
};

// ---------------------------------------------------------------------------
// The run_result field table. Every place that moves a whole row - the
// JSON-lines/CSV sinks and decoder, the results-store schema, the run
// drivers' accumulation and sampled extrapolation, the bit-identity
// comparator, trace_tool's digest - iterates this one list instead of
// naming the fields again. A new field is one member plus one entry.
// ---------------------------------------------------------------------------

/// How a field's value is written; follows from the member's C++ type
/// (kind_of), except the two row-coordinate kinds exp::visit_row assigns.
enum class field_kind : std::uint8_t {
    u64,       ///< unsigned integer (JSON number)
    f64,       ///< double, written with all 17 significant digits
    flag,      ///< bool
    text,      ///< std::string
    status,    ///< run_status, written as its name
    u64_array, ///< std::vector<std::uint64_t>
    f64_array, ///< std::vector<double>
    energy,    ///< power::energy_breakdown, a nested object
    id64,      ///< full-range 64-bit number (derived seed)
    hex64,     ///< 64-bit hash as a 16-digit hex string, omitted when 0
};

enum class field_role : std::uint8_t {
    label,       ///< names the run or its sweep coordinates
    measured,    ///< deterministic simulation outcome
    host_timing, ///< measures the host; differs between any two runs
};

struct field {
    const char* name; ///< JSON-lines key
    field_kind kind;
    field_role role;
    /// Sampled runs extrapolate it from the measured windows (a count).
    bool extrapolated = false;

    bool deterministic() const { return role != field_role::host_timing; }
};

template <class T> constexpr field_kind kind_of(T run_result::*)
{
    if constexpr (std::is_same_v<T, bool>)
        return field_kind::flag;
    else if constexpr (std::is_integral_v<T> && std::is_unsigned_v<T>)
        return field_kind::u64;
    else if constexpr (std::is_same_v<T, double>)
        return field_kind::f64;
    else if constexpr (std::is_same_v<T, std::string>)
        return field_kind::text;
    else if constexpr (std::is_same_v<T, run_status>)
        return field_kind::status;
    else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>)
        return field_kind::u64_array;
    else if constexpr (std::is_same_v<T, std::vector<double>>)
        return field_kind::f64_array;
    else {
        static_assert(std::is_same_v<T, power::energy_breakdown>,
                      "run_result field of an unsupported type");
        return field_kind::energy;
    }
}

/// f(field, member pointer) once per run_result field, in JSON-lines key
/// order. `coordinates()` runs where a sweep row's job coordinates sit,
/// between the run names and the outcome (see exp::visit_row). The
/// extrapolated counts, in table order, are also the order they travel in
/// a checkpoint's `driver` section.
template <class F, class G> void for_each_field(F&& f, G&& coordinates)
{
    const auto label = [&](const char* name, auto member) {
        f(field{name, kind_of(member), field_role::label}, member);
    };
    const auto measured = [&](const char* name, auto member) {
        f(field{name, kind_of(member), field_role::measured}, member);
    };
    const auto count = [&](const char* name, auto member) {
        static_assert(kind_of(decltype(member){}) == field_kind::u64 ||
                          kind_of(decltype(member){}) == field_kind::u64_array,
                      "only counts are extrapolated");
        f(field{name, kind_of(member), field_role::measured, true}, member);
    };
    const auto host = [&](const char* name, auto member) {
        f(field{name, kind_of(member), field_role::host_timing}, member);
    };
    label("config", &run_result::config_name);
    label("workload", &run_result::workload_name);
    coordinates();
    measured("status", &run_result::status);
    measured("error", &run_result::error);
    measured("floating_point", &run_result::floating_point);
    measured("instructions", &run_result::instructions);
    measured("cycles", &run_result::cycles);
    measured("ipc", &run_result::ipc);
    measured("cores", &run_result::cores);
    measured("per_core_ipc", &run_result::per_core_ipc);
    measured("weighted_speedup", &run_result::weighted_speedup);
    measured("sampled", &run_result::sampled);
    measured("sampled_windows", &run_result::sampled_windows);
    measured("measured_instructions", &run_result::measured_instructions);
    measured("ipc_ci95", &run_result::ipc_ci95);
    count("l2_read_hits", &run_result::l2_read_hits);
    count("fabric_read_hits", &run_result::fabric_read_hits);
    count("transport_actual", &run_result::transport_actual);
    count("transport_min", &run_result::transport_min);
    count("search_restarts", &run_result::search_restarts);
    count("searches", &run_result::searches);
    count("loads_l1", &run_result::loads_l1);
    count("loads_fabric", &run_result::loads_fabric);
    count("loads_l2", &run_result::loads_l2);
    count("loads_l3", &run_result::loads_l3);
    count("loads_dnuca", &run_result::loads_dnuca);
    count("loads_memory", &run_result::loads_memory);
    count("loads_peer", &run_result::loads_peer);
    measured("avg_load_latency", &run_result::avg_load_latency);
    host("host_seconds", &run_result::host_seconds);
    host("sim_cycles_per_second", &run_result::sim_cycles_per_second);
    host("sim_instructions_per_second",
         &run_result::sim_instructions_per_second);
    measured("energy", &run_result::energy);
}

template <class F> void for_each_field(F&& f)
{
    for_each_field(f, [] {});
}

/// f(field, value) over one row's members (const or not), in table order.
template <class R, class F> void visit_fields(R& row, F&& f)
{
    for_each_field([&](const field& d, auto member) { f(d, row.*member); });
}

/// The extrapolated counts only, each a u64 or u64 array member.
template <class F> void for_each_count(F&& f)
{
    for_each_field([&](const field& d, auto member) {
        if constexpr (kind_of(decltype(member){}) == field_kind::u64 ||
                      kind_of(decltype(member){}) == field_kind::u64_array)
            if (d.extrapolated)
                f(d, member);
    });
}

/// The stored parts of the energy object, in key order. Its `total_j` key
/// is energy_breakdown::total(), written but never read back.
template <class F> void for_each_energy_part(F&& f)
{
    f("dynamic_j", &power::energy_breakdown::dynamic_j);
    f("static_l1_j", &power::energy_breakdown::static_l1_j);
    f("static_storage_j", &power::energy_breakdown::static_storage_j);
    f("static_l3_j", &power::energy_breakdown::static_l3_j);
}

class system {
public:
    system(const system_config& config, const wl::workload_profile& workload,
           std::uint64_t seed);

    /// CMP construction: core i runs workloads[i % workloads.size()] on
    /// its own rng::split lane. Synthetic lanes get disjoint address
    /// regions (a multiprogrammed mix); scenario and trace lanes carry
    /// their own addresses. A single profile replicates into a rate-style
    /// homogeneous mix. cores == 1 ignores all but the first profile and
    /// builds the exact single-core wiring.
    system(const system_config& config,
           const std::vector<wl::workload_profile>& workloads,
           std::uint64_t seed);

    /// Writes the capture file (config.capture_path), if one was recorded.
    ~system();

    /// Run `warmup` instructions (discarded), then `instructions` measured,
    /// on every lane. When config.sampling.enabled, the measured span
    /// executes as fast-forward + periodic detailed windows and the result
    /// carries statistical estimates (run_result::sampled). CMP runs
    /// (cores > 1) sample too: functional retirement round-robins across
    /// the lanes and the coherence hub applies warm MESI transitions, so
    /// directory and L1 permission state stay exact across fast-forward
    /// (requires the coherence hub - a hierarchy without one cannot honor
    /// the CMP warm contract and run() throws).
    run_result run(std::uint64_t instructions, std::uint64_t warmup);

    unsigned cores() const { return unsigned(cores_.size()); }
    cpu::ooo_core& core() { return *cores_.front(); }
    cpu::ooo_core& core(unsigned i) { return *cores_[i]; }
    /// Lane i's instruction stream (its pre-warm table, for oracle tests).
    const wl::workload_stream& stream(unsigned i) const { return *streams_[i]; }
    fabric::lnuca_cache* fabric() { return fabric_.get(); }
    dnuca::dnuca_cache* dnuca() { return dnuca_.get(); }
    mem::conventional_cache& l1() { return *l1s_.front(); }
    mem::conventional_cache& l1(unsigned i) { return *l1s_[i]; }
    mem::conventional_cache* l2() { return l2_.get(); }
    mem::conventional_cache* l3() { return l3_.get(); }
    mem::main_memory& memory() { return *memory_; }
    mem::bus* l1_l2_bus() { return l1_l2_bus_.get(); }
    coh::coherence_hub* hub() { return hub_.get(); }
    sim::engine& engine() { return engine_; }

private:
    struct window_totals;
    /// Every component's counter values, in for_each_component order.
    using counter_values = std::vector<std::vector<std::uint64_t>>;

    /// Which shared-level components this hierarchy kind carries.
    struct level_set {
        bool fabric = false;
        bool l2 = false;
        bool l3 = false;
        bool dnuca = false;
    };
    level_set levels() const;

    /// One loop over the lanes: core i, its private L1 and, when there is
    /// more than one core, the coherence hub they share. A single lane
    /// keeps the pre-CMP seeds, L1 settings and registration order.
    void build(const std::vector<wl::workload_profile>& workloads);
    /// Realise one lane's stream: synthetic generator, trace replay, or
    /// scenario lane - wrapped for capture when config.capture_path is set.
    std::unique_ptr<wl::workload_stream>
    make_lane_stream(const wl::workload_profile& profile, unsigned lane);
    /// Open/generate (and cache) the trace behind a trace/scenario profile.
    std::shared_ptr<const trace::trace_data>
    trace_source(const wl::workload_profile& profile);
    /// Construct the shared level + memory (canonical seed derivations).
    void build_shared_components();
    /// Wire and register the shared level beneath `above` (the lone L1 or
    /// the coherence hub) and return its entry port. Registers memory.
    mem::mem_port* wire_shared_level(mem::mem_client* above);
    void prewarm();
    /// Visit the timed components in the fixed checkpoint section order -
    /// cores, L1s, hub, bus, L2, L3, fabric, D-NUCA, memory - as
    /// f(section_id, index, component&). Save, restore, the digest list,
    /// quiescent() and the counter harvest all walk this one list.
    template <class F> void for_each_component(F&& f) const;

    // The two run drivers. Both run every lane to the same per-lane
    // instruction count; one core is simply one lane.

    /// Exact: detailed warm-up, then detailed measurement, in
    /// checkpoint.every-instruction chunks when checkpointing is on. The
    /// chunk cursor advances by the slowest lane's committed count.
    run_result run_exact(std::uint64_t instructions, std::uint64_t warmup);
    /// Sampled (SMARTS-style): functional fast-forward punctuated by
    /// periodically placed detailed windows; per-core IPC is measured
    /// inside the windows.
    run_result run_sampled(std::uint64_t instructions, std::uint64_t warmup);
    /// The sampled driver's estimate: mean-CPI point estimate + delta-method
    /// 95% CI from the per-window series, extrapolation of the measured
    /// event counts to `retired` instructions (all lanes together).
    void assemble_sampled(run_result& r, const window_totals& totals,
                          std::uint64_t retired) const;
    /// Identity fields (names, cores) and per-core IPC of a finished run.
    run_result lane_result(const window_totals& totals) const;
    /// Every core has committed its instruction limit.
    bool all_done() const;
    /// All components idle (nothing in flight anywhere).
    bool quiescent() const;
    /// Run detailed until quiescent (pre-fast-forward drain).
    void drain(cycle_t max_cycles);
    /// Functional fast-forward with rate matching: lane i retires
    /// count * rates[i] / mean(rates), so the lanes drift apart as they do
    /// under dense execution (rates come from the previous detailed window;
    /// all 1.0 is lockstep), then the clock advances by `count`.
    void fast_forward_rated(std::uint64_t count,
                            const std::vector<double>& rates);
    /// One detailed segment of `instructions` per lane; when `totals` is
    /// non-null the segment is measured into it (otherwise it only re-warms
    /// timing state).
    void detailed_segment(std::uint64_t instructions, cycle_t max_cycles,
                          window_totals* totals);
    /// Cycles lane i took in the segment that started at `start`, up to
    /// its own committing tick (early finishers stop accruing).
    cycle_t lane_cycles(std::size_t i, cycle_t start) const;
    /// Snapshot before a measured span; harvest() adds the span's counter
    /// deltas to the totals through the table in system.cpp.
    counter_values snapshot_counters() const;
    void harvest(const counter_values& before, window_totals& totals) const;
    /// Copy the harvested totals (the table's counts, latency, energy) into
    /// `r`, counts and energy events scaled by `factor` (1 for exact runs,
    /// retired / measured instructions for sampled ones), and describe the
    /// built hierarchy to the energy model; r.cycles must already be set.
    void apply_totals(run_result& r, const window_totals& totals,
                      double factor) const;

    // --- checkpoint/restore (src/ckpt/) --------------------------------
    // The drivers call checkpoint_boundary() at every quiescent chunk or
    // window boundary; save_checkpoint/try_load_checkpoint own the section
    // layout (one section per component, see ckpt::section_id), while the
    // driver's progress state travels through the `progress` callback -
    // one function per driver, listing its fields once for both
    // directions - into the `driver` section.

    /// Identity hash stored in the file header: config name/kind/cores,
    /// seed, engine mode, sampling spec, checkpoint cadence, lane profiles
    /// and the major capacity parameters. A checkpoint from any other run
    /// is rejected before a single byte of state is restored.
    std::uint64_t ckpt_config_hash() const;
    /// Component digest list in the fixed section order (save writes it
    /// into the `digests` section; restore recomputes and compares).
    std::vector<std::pair<std::string, std::uint64_t>> component_digests() const;
    /// Serialize the complete simulator state and atomically replace
    /// config_.checkpoint.path. Never throws: a failed save warns and the
    /// run it protects carries on.
    void save_checkpoint(std::uint64_t run_instructions,
                         std::uint64_t run_warmup,
                         const std::function<void(ckpt::saver&)>& progress);
    /// Restore from config_.checkpoint.path when checkpoint.resume is set.
    /// Returns false on the normal cold starts (resume off, no file yet) and
    /// on any defect detected before state is touched (CRC, version, config
    /// hash, meta mismatch - after an LNUCA_WARN). Throws ckpt::ckpt_error
    /// if the state was already partially loaded when a defect surfaced:
    /// the system is then unusable and the caller must rebuild it cold
    /// (exp::execute_job does).
    bool try_load_checkpoint(
        std::uint64_t run_instructions, std::uint64_t run_warmup,
        const std::function<void(ckpt::loader&)>& progress);
    /// Cadence/signal check at a quiescent boundary: saves when `retired`
    /// crossed checkpoint.every since the last save or a SIGTERM/SIGINT is
    /// latched, then fires the halt_after and LNUCA_CKPT_EXIT_AFTER test
    /// hooks and converts a latched signal into ckpt::interrupted.
    void checkpoint_boundary(
        std::uint64_t retired, std::uint64_t run_instructions,
        std::uint64_t run_warmup,
        const std::function<void(ckpt::saver&)>& progress);
    /// Successful completion: unlink the snapshot (a stale one would
    /// "resume" a finished run).
    void checkpoint_complete();

    system_config config_;
    std::uint64_t seed_ = 1;
    mem::txn_id_source ids_;
    // Per-core front end: exactly one element in single-core mode (the
    // construction there is byte-for-byte the pre-CMP wiring).
    std::vector<std::unique_ptr<wl::workload_stream>> streams_;
    /// Trace/scenario sources behind streams_, keyed by spec - lanes of one
    /// trace share a single mapping/generation.
    std::vector<std::pair<std::string, std::shared_ptr<const trace::trace_data>>>
        trace_cache_;
    std::unique_ptr<trace::trace_writer> capture_; ///< capture_path only
    std::vector<std::unique_ptr<cpu::ooo_core>> cores_;
    std::vector<std::unique_ptr<mem::conventional_cache>> l1s_;
    std::unique_ptr<coh::coherence_hub> hub_; ///< cores > 1 only
    std::unique_ptr<mem::bus> l1_l2_bus_;
    std::unique_ptr<mem::conventional_cache> l2_;
    std::unique_ptr<mem::conventional_cache> l3_;
    std::unique_ptr<fabric::lnuca_cache> fabric_;
    std::unique_ptr<dnuca::dnuca_cache> dnuca_;
    std::unique_ptr<mem::main_memory> memory_;
    sim::engine engine_;

    // Checkpoint bookkeeping for the current run() invocation.
    std::uint64_t ckpt_last_save_ = 0; ///< retired cursor at the last save
    std::uint64_t ckpt_saves_ = 0;     ///< successful saves this process
};

/// Multiprogrammed weighted speedup of a homogeneous-mix CMP run against
/// its single-core baseline on the same hierarchy:
/// sum_i(IPC_i / IPC_single). Returns 0 when the baseline is degenerate.
double weighted_speedup(const run_result& cmp_result,
                        const run_result& single_core_baseline);

/// Run one (config, workload) pair in a fresh system.
run_result run_one(const system_config& config,
                   const wl::workload_profile& workload,
                   std::uint64_t instructions, std::uint64_t warmup,
                   std::uint64_t seed = 1);

/// Default bench run lengths; override with --instructions/--warmup.
inline constexpr std::uint64_t default_instructions = 400'000;
inline constexpr std::uint64_t default_warmup = 60'000;

} // namespace lnuca::hier
