// google-benchmark comparison of the dense and idle-skip engine schedules
// on whole-system simulation, at the two extremes that bound real sweeps:
//
//   idle-heavy  a serialised pointer chase over a 64MB footprint on the
//               conventional L1/L2/L3 hierarchy - each load misses to main
//               memory with the core asleep for most of the ~260-cycle
//               round trip (>90% of cycles are skippable);
//   saturated   a cache-resident integer workload (456.hmmer proxy) where
//               the core acts nearly every cycle, measuring the scheduling
//               overhead idle-skip adds when there is nothing to skip.
//
// bm_build/<preset> times construction alone - streams, arrays and the
// pre-warm fill of L2, L3 and D-NUCA - for the presets whose builds
// dominate short jobs.
//
// bm_ckpt_write/L3 times one checkpoint save of the largest section a
// single-core save writes: the pre-warmed L2-256KB system's L3 tag array,
// streamed through ckpt::saver and finalized (fsync + rename) in a
// temporary directory.
//
// CI runs this binary with --benchmark_out=BENCH_engine.json to append the
// first engine-performance point to the perf trajectory.
#include "src/ckpt/archive.h"
#include "src/lnuca.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

using namespace lnuca;

namespace {

/// Low-MLP, memory-resident profile: dependent loads uniformly spread over
/// 2M distinct 32B blocks (64MB), far beyond the 8MB L3.
wl::workload_profile idle_heavy_profile()
{
    wl::workload_profile w;
    w.name = "pointer-chase-64MB";
    w.mix = {0.35, 0.05, 0.12, 0.40, 0.02, 0.03, 0.02, 0.01};
    w.p_new_block = 0.05;
    w.footprint_blocks = 1ull << 21;
    w.reuse = {{0.95, 2.0e6}};
    w.sequential_run = 0.0;
    w.mean_dep_distance = 2.0;
    w.pointer_chase = 0.95;
    return w;
}

void bm_engine(benchmark::State& state, const wl::workload_profile& workload,
               sim::schedule_mode mode)
{
    hier::system_config config = hier::presets::l2_256kb();
    config.engine_mode = mode;

    std::uint64_t instructions = 0, executed = 0, skipped = 0;
    for (auto _ : state) {
        state.PauseTiming();
        hier::system sys(config, workload, 1);
        state.ResumeTiming();
        const auto r = sys.run(20000, 2000);
        instructions += r.instructions;
        executed += sys.engine().cycles_executed();
        skipped += sys.engine().cycles_skipped();
    }
    state.SetItemsProcessed(std::int64_t(instructions));
    state.counters["skipped_pct"] =
        executed + skipped == 0
            ? 0.0
            : 100.0 * double(skipped) / double(executed + skipped);
}

void bm_idle_heavy_dense(benchmark::State& s)
{
    bm_engine(s, idle_heavy_profile(), sim::schedule_mode::dense);
}
void bm_idle_heavy_skip(benchmark::State& s)
{
    bm_engine(s, idle_heavy_profile(), sim::schedule_mode::idle_skip);
}
void bm_saturated_dense(benchmark::State& s)
{
    bm_engine(s, *wl::find_spec2006("456.hmmer"), sim::schedule_mode::dense);
}
void bm_saturated_skip(benchmark::State& s)
{
    bm_engine(s, *wl::find_spec2006("456.hmmer"), sim::schedule_mode::idle_skip);
}

/// One hier::system construction per iteration; destruction is untimed.
void bm_build(benchmark::State& state, const hier::system_config& config)
{
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    for (auto _ : state) {
        auto sys = std::make_unique<hier::system>(config, workload, 1);
        state.PauseTiming();
        sys.reset();
        state.ResumeTiming();
    }
}

void bm_ckpt_write(benchmark::State& state, const hier::system_config& config)
{
    hier::system sys(config, *wl::find_spec2006("429.mcf"), 1);
    const mem::tag_array& tags = sys.l3()->tags();
    std::string dir =
        (std::filesystem::temp_directory_path() / "lnuca_ckpt_XXXXXX")
            .string();
    if (::mkdtemp(dir.data()) == nullptr) {
        state.SkipWithError("cannot create a temporary directory");
        return;
    }
    const std::string path = dir + "/l3.ckpt";
    for (auto _ : state) {
        ckpt::writer w(path, 1);
        w.begin_section(ckpt::section_id::l3);
        ckpt::saver ar(w);
        ar(tags);
        w.end_section();
        w.finalize(0);
    }
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

BENCHMARK(bm_idle_heavy_dense)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_idle_heavy_skip)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_saturated_dense)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_saturated_skip)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_build, L2_256KB, hier::presets::l2_256kb())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_build, LN3_144KB, hier::presets::lnuca_l3(3))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_build, DN_4x8, hier::presets::dnuca_4x8())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_build, LN3_144KB_2c,
                  hier::presets::cmp(hier::presets::lnuca_l3(3), 2))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_ckpt_write, L3, hier::presets::l2_256kb())
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
