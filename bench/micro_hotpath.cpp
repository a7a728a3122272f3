// Zero-allocation executed-cycle hot path: measurement and enforcement.
//
// Two jobs in one binary:
//
//  1. A steady-state allocation gate that runs the saturated presets under
//     a counting global allocator and FAILS (exit 1) if any executed cycle
//     of the measurement window touches the heap. CI runs this as the
//     perf-smoke step; the zero-allocation invariant of DESIGN.md's
//     "Anatomy of an executed cycle" section is enforced here, not by
//     review.
//  2. google-benchmark timings of saturated-preset whole-system simulation
//     (cycles/second and allocations/cycle as reported counters), emitted
//     as BENCH_hotpath.json by CI next to BENCH_engine.json.
//
// "Saturated" means the core acts nearly every cycle (a cache-resident
// 456.hmmer proxy), i.e. the idle-skip engine cannot delete cycles and all
// the cost sits in the executed-cycle data plane this gate protects.
#include "src/lnuca.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <execinfo.h>
#include <new>

// The replacement operator new routes through malloc; GCC's inliner then
// flags ordinary `delete` call sites as mismatched with malloc. The pairing
// is correct (our delete frees with free), so silence the false positive.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// ---------------------------------------------------------------------------
// Counting global allocator. Replacing operator new/delete binary-wide is
// the hook google-benchmark itself and the standard library route through,
// so the count covers every heap allocation in the process.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_trap{false}; // debug aid: abort on first gated allocation
}

void* operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (g_trap.load(std::memory_order_relaxed)) {
        void* frames[32];
        const int n = ::backtrace(frames, 32);
        ::backtrace_symbols_fd(frames, n, 2);
        std::abort();
    }
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#if defined(__cpp_aligned_new)
void* operator new(std::size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(std::size_t(align),
                                     (size + std::size_t(align) - 1) &
                                         ~(std::size_t(align) - 1)))
        return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
#endif

namespace {

using namespace lnuca;

struct hotpath_case {
    const char* name;
    hier::system_config config;
    wl::workload_profile workload;
};

const wl::workload_profile& saturated_workload()
{
    static const wl::workload_profile w = *wl::find_spec2006("456.hmmer");
    return w;
}

/// Trace-replay front end: the scenario generates in-memory lanes at
/// construction; the measurement window then runs the trace_stream decoder
/// (and, for the CMP case, its coherence traffic) under the gate. The
/// scenario must stay fabric-resident like the hmmer proxy - "saturated"
/// means the core acts every cycle, not that misses stream to the next
/// level (a store-streaming producer lane would instead measure the
/// fabric's overflow-queue growth).
wl::workload_profile trace_workload(const char* scenario)
{
    wl::workload_profile w;
    w.name = std::string("scenario:") + scenario;
    w.scenario = scenario;
    return w;
}

std::vector<hotpath_case> saturated_cases()
{
    std::vector<hotpath_case> cases;
    cases.push_back({"L2-256KB", hier::presets::l2_256kb(),
                     saturated_workload()});
    cases.push_back({"LN3-144KB", hier::presets::lnuca_l3(3),
                     saturated_workload()});
    // CMP: the coherence hub (directory, snoops, c2c forwards) joins the
    // executed cycle and must obey the same zero-allocation contract.
    cases.push_back({"L2-256KB-2c",
                     hier::presets::cmp(hier::presets::l2_256kb(), 2),
                     saturated_workload()});
    cases.push_back({"LN3-144KB-2c",
                     hier::presets::cmp(hier::presets::lnuca_l3(3), 2),
                     saturated_workload()});
    // Trace-driven streams: the mmap/in-memory record decoder replaces the
    // synthetic generator and must be equally allocation-free.
    cases.push_back({"LN3-trace", hier::presets::lnuca_l3(3),
                     trace_workload("ping_pong")});
    cases.push_back({"LN3-trace-2c",
                     hier::presets::cmp(hier::presets::lnuca_l3(3), 2),
                     trace_workload("producer_consumer")});
    // D-NUCA: the controller's request slab, the mesh routers and the bank
    // queues are all fixed or pre-sized.
    cases.push_back({"DN-4x8", hier::presets::dnuca_4x8(),
                     saturated_workload()});
    for (auto& c : cases)
        c.config.engine_mode = sim::schedule_mode::dense; // every cycle executes
    return cases;
}

/// Run `instructions` more committed instructions without resetting stats
/// (reset would re-create counters and allocate); returns executed cycles.
cycle_t run_more(hier::system& sys, std::uint64_t instructions)
{
    const cycle_t start = sys.engine().now();
    for (unsigned i = 0; i < sys.cores(); ++i)
        sys.core(i).set_instruction_limit(sys.core(i).committed() +
                                          instructions);
    sys.engine().run_until(
        [&] {
            for (unsigned i = 0; i < sys.cores(); ++i)
                if (!sys.core(i).done())
                    return false;
            return true;
        },
        start + 400 * instructions + 2'000'000);
    return sys.engine().now() - start;
}

// ---------------------------------------------------------------------------
// The gate: after warm-up, a measurement window of a saturated dense run
// must perform zero heap allocations.
// ---------------------------------------------------------------------------
constexpr std::uint64_t gate_warmup_instructions = 60'000;
constexpr std::uint64_t gate_window_instructions = 120'000;

int run_gate()
{
    int failures = 0;
    for (const hotpath_case& c : saturated_cases()) {
        hier::system sys(c.config, c.workload, 1);
        run_more(sys, gate_warmup_instructions); // reach steady state

        const std::uint64_t before = g_allocations.load();
        if (std::getenv("HOTPATH_TRAP"))
            g_trap.store(true);
        const cycle_t cycles = run_more(sys, gate_window_instructions);
        g_trap.store(false);
        const std::uint64_t allocations = g_allocations.load() - before;

        std::printf("hotpath gate: %-12s %10llu cycles, %llu allocations "
                    "(%.6f/cycle) -> %s\n",
                    c.name, (unsigned long long)cycles,
                    (unsigned long long)allocations,
                    cycles ? double(allocations) / double(cycles) : 0.0,
                    allocations == 0 ? "OK" : "FAIL");
        if (allocations != 0)
            ++failures;

        // The fabric's downstream overflow ring is pre-sized from config;
        // reaching the configured depth means the ring would have regrown
        // (a hot-path allocation) before the backpressure bound landed.
        // Gate the high-water mark strictly below the depth in steady
        // state, alongside the allocation count it protects.
        if (const fabric::lnuca_cache* fab = sys.fabric()) {
            const std::uint64_t high_water =
                fab->counters().get("downstream_queue_high_water");
            const std::uint64_t depth = fab->config().downstream_queue_depth;
            std::printf("hotpath gate: %-12s downstream queue high-water "
                        "%llu / depth %llu -> %s\n",
                        c.name, (unsigned long long)high_water,
                        (unsigned long long)depth,
                        high_water < depth ? "OK" : "FAIL");
            if (high_water >= depth)
                ++failures;
        }
    }
    return failures;
}

// ---------------------------------------------------------------------------
// Benchmarks: saturated cycles/second plus allocations/cycle as counters.
// ---------------------------------------------------------------------------
void bm_hotpath(benchmark::State& state, const hier::system_config& config)
{
    std::uint64_t cycles = 0, allocations = 0;
    for (auto _ : state) {
        state.PauseTiming();
        hier::system sys(config, saturated_workload(), 1);
        run_more(sys, 20'000); // warm-up outside the timed window
        state.ResumeTiming();
        const std::uint64_t before = g_allocations.load();
        cycles += run_more(sys, 40'000);
        allocations += g_allocations.load() - before;
    }
    state.SetItemsProcessed(std::int64_t(cycles)); // items/s = cycles/s
    state.counters["allocs_per_cycle"] =
        cycles == 0 ? 0.0 : double(allocations) / double(cycles);
}

void bm_saturated_conventional(benchmark::State& s)
{
    auto config = hier::presets::l2_256kb();
    config.engine_mode = sim::schedule_mode::dense;
    bm_hotpath(s, config);
}

void bm_saturated_lnuca(benchmark::State& s)
{
    auto config = hier::presets::lnuca_l3(3);
    config.engine_mode = sim::schedule_mode::dense;
    bm_hotpath(s, config);
}

void bm_saturated_cmp2(benchmark::State& s)
{
    auto config = hier::presets::cmp(hier::presets::l2_256kb(), 2);
    config.engine_mode = sim::schedule_mode::dense;
    bm_hotpath(s, config);
}

void bm_saturated_dnuca(benchmark::State& s)
{
    auto config = hier::presets::dnuca_4x8();
    config.engine_mode = sim::schedule_mode::dense;
    bm_hotpath(s, config);
}

BENCHMARK(bm_saturated_conventional)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_saturated_lnuca)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_saturated_cmp2)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_saturated_dnuca)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    const int gate_failures = run_gate();
    if (gate_failures != 0) {
        std::fprintf(stderr,
                     "hotpath gate FAILED: %d case(s) allocate in steady "
                     "state\n",
                     gate_failures);
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
