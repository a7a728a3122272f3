// Sampled simulation: spec parsing, warm_access() functional contract,
// bit-identity of the non-sampled path, and sampled-run determinism across
// serial/parallel runner execution.
#include "src/coh/coherence_hub.h"
#include "src/coh/directory.h"
#include "src/exp/runner.h"
#include "src/exp/sweep.h"
#include "src/fabric/lnuca_cache.h"
#include "src/hier/presets.h"
#include "src/hier/system.h"
#include "src/mem/cache.h"
#include "src/mem/main_memory.h"
#include "src/sim/engine.h"
#include "src/trace/workload_spec.h"
#include "src/workloads/spec2006.h"
#include "tests/run_result_compare.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

namespace lnuca {
namespace {

// ---------------------------------------------------------------------------
// --sampling spec parsing.
// ---------------------------------------------------------------------------

TEST(sampling_spec, parses_off_and_periodic)
{
    const auto off = hier::parse_sampling_spec("off");
    ASSERT_TRUE(off.has_value());
    EXPECT_FALSE(off->enabled);

    const auto p = hier::parse_sampling_spec("periodic:2000:50000");
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->enabled);
    EXPECT_EQ(p->detail_instructions, 2000u);
    EXPECT_EQ(p->period_instructions, 50000u);
    EXPECT_EQ(p->detail_warmup, 1000u); // defaults to detail / 2

    const auto q = hier::parse_sampling_spec("periodic:1500:30000:600");
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->detail_instructions, 1500u);
    EXPECT_EQ(q->period_instructions, 30000u);
    EXPECT_EQ(q->detail_warmup, 600u);
}

TEST(sampling_spec, rejects_malformed_input)
{
    EXPECT_FALSE(hier::parse_sampling_spec("").has_value());
    EXPECT_FALSE(hier::parse_sampling_spec("on").has_value());
    EXPECT_FALSE(hier::parse_sampling_spec("periodic").has_value());
    EXPECT_FALSE(hier::parse_sampling_spec("periodic:").has_value());
    EXPECT_FALSE(hier::parse_sampling_spec("periodic:2000").has_value());
    EXPECT_FALSE(hier::parse_sampling_spec("periodic:0:50000").has_value());
    EXPECT_FALSE(hier::parse_sampling_spec("periodic:2000:0").has_value());
    EXPECT_FALSE(hier::parse_sampling_spec("periodic:2000:1x").has_value());
    EXPECT_FALSE(
        hier::parse_sampling_spec("periodic:1:2:3:4").has_value());
}

// ---------------------------------------------------------------------------
// warm_access(): the content transitions of the timing paths, applied at once.
// ---------------------------------------------------------------------------

TEST(warm_access, conventional_cache_installs_and_refreshes)
{
    mem::txn_id_source ids;
    mem::cache_config cfg;
    cfg.size_bytes = 1_KiB;
    cfg.ways = 2;
    cfg.block_bytes = 32;
    cfg.write_through = false;
    cfg.write_allocate = true;
    mem::conventional_cache cache(cfg, ids);

    cache.warm_access({0x1000, mem::access_kind::read, false});
    EXPECT_TRUE(cache.tags().probe(0x1000).has_value());
    // A warm store miss on a write-allocate cache installs dirty.
    cache.warm_access({0x2000, mem::access_kind::write, false});
    const auto hit = cache.tags().probe(0x2000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->was_dirty);
    // Warming touches no counters and no timing state.
    EXPECT_EQ(cache.counters().get("accesses"), 0u);
    EXPECT_TRUE(cache.quiescent());
}

TEST(warm_access, dirty_victims_propagate_downstream)
{
    mem::txn_id_source ids;
    mem::cache_config l1c;
    l1c.size_bytes = 64; // one set, two ways of 32B: evicts immediately
    l1c.ways = 2;
    l1c.block_bytes = 32;
    l1c.write_through = false;
    l1c.write_allocate = true;
    mem::cache_config l2c;
    l2c.size_bytes = 1_KiB;
    l2c.ways = 4;
    l2c.block_bytes = 32;
    mem::conventional_cache l1(l1c, ids), l2(l2c, ids);
    l1.set_downstream(&l2);

    l1.warm_access({0x0, mem::access_kind::write, false});   // dirty in L1
    l1.warm_access({0x400, mem::access_kind::read, false});  // same set
    l1.warm_access({0x800, mem::access_kind::read, false});  // evicts 0x0
    EXPECT_FALSE(l1.tags().probe(0x0).has_value());
    // The dirty victim was warm-written back and installed below. (The two
    // read misses also warmed the L2 on their way down.)
    const auto below = l2.tags().probe(0x0);
    ASSERT_TRUE(below.has_value());
    EXPECT_TRUE(below->was_dirty);
    EXPECT_TRUE(l2.tags().probe(0x400).has_value());
}

TEST(warm_access, fabric_read_hit_preserves_content_exclusion)
{
    mem::txn_id_source ids;
    fabric::fabric_config fc;
    fc.levels = 3;
    fabric::lnuca_cache fabric(fc, ids);

    // A warm eviction installs the block into exactly one tile.
    fabric.warm_access({0x5000, mem::access_kind::writeback, true});
    EXPECT_EQ(fabric.copies_of(0x5000), 1u);
    // A warm read hit extracts it (the block moves up to the r-tile).
    fabric.warm_access({0x5000, mem::access_kind::read, false});
    EXPECT_EQ(fabric.copies_of(0x5000), 0u);
    EXPECT_EQ(fabric.counters().get("tile_tag_lookups"), 0u);
    EXPECT_TRUE(fabric.quiescent());
}

TEST(warm_access, fabric_full_level_dominoes_outwards)
{
    fabric::fabric_config fc;
    fc.levels = 2; // one ring of 5 tiles
    fc.tile.size_bytes = 64; // one set of 2 ways
    fc.tile.ways = 2;
    fc.tile.block_bytes = 32;
    const auto resident = [](const fabric::lnuca_cache& fabric) {
        std::uint64_t n = 0;
        for (addr_t a = 0; a < 12; ++a)
            n += fabric.copies_of(a * 32);
        return n;
    };

    // 5 tiles x 2 ways of one set hold 10 blocks, but a victim only moves
    // along the replacement links: once a corner tile on the path is full,
    // its victim leaves while tiles off the path still have free ways.
    // Twelve clean evictions through the timed path leave 9 resident.
    mem::txn_id_source timed_ids;
    fabric::lnuca_cache timed(fc, timed_ids);
    mem::main_memory memory(mem::main_memory_config{});
    timed.set_downstream(&memory);
    memory.set_upstream(&timed);
    sim::engine engine;
    engine.add(timed);
    engine.add(memory);
    for (addr_t a = 0; a < 12; ++a) {
        mem::mem_request r;
        r.id = timed_ids.next();
        r.addr = a * 32;
        r.size = 32;
        r.kind = mem::access_kind::writeback;
        r.created_at = engine.now();
        r.needs_response = false;
        timed.accept(r);
        ASSERT_TRUE(engine.run_until(
            [&] { return timed.quiescent() && memory.quiescent(); }, 10000));
    }
    EXPECT_EQ(resident(timed), 9u);

    // The warm path takes the same dominoes.
    mem::txn_id_source ids;
    fabric::lnuca_cache fabric(fc, ids);
    for (addr_t a = 0; a < 12; ++a)
        fabric.warm_access({a * 32, mem::access_kind::writeback, false});
    EXPECT_EQ(resident(fabric), 9u);
    for (fabric::tile_index i = 0; i < fabric.geo().tile_count(); ++i)
        EXPECT_EQ(fabric.tile_at(i).cache.valid_count(),
                  timed.tile_at(i).cache.valid_count())
            << "tile " << i;
}

// ---------------------------------------------------------------------------
// The non-sampled path is bit-identical to the pre-sampling driver: with
// sampling off (explicitly or by default), every preset x workload produces
// exactly the idle_skip results.
// ---------------------------------------------------------------------------

std::vector<hier::system_config> all_presets()
{
    using namespace hier::presets;
    return {l2_256kb(),     lnuca_l3(2),    lnuca_l3(3), lnuca_l3(4),
            dnuca_4x8(),    lnuca_dnuca(2), lnuca_dnuca(3),
            lnuca_dnuca(4)};
}

TEST(sampling_off, bit_identical_to_idle_skip_on_every_preset)
{
    const char* workloads[] = {"456.hmmer", "429.mcf", "470.lbm", "433.milc"};
    for (const auto& preset : all_presets()) {
        for (const char* name : workloads) {
            const auto workload = *wl::find_spec2006(name);
            hier::system_config base = preset; // sampling defaults to off
            const auto plain = run_one(base, workload, 2500, 500, 7);

            hier::system_config off = preset;
            off.sampling = *hier::parse_sampling_spec("off");
            const auto explicit_off = run_one(off, workload, 2500, 500, 7);

            expect_sim_fields_identical(plain, explicit_off);
            EXPECT_FALSE(explicit_off.sampled) << preset.name << "/" << name;
        }
    }
}

// ---------------------------------------------------------------------------
// Sampled runs: determinism and basic statistical sanity.
// ---------------------------------------------------------------------------

hier::system_config sampled_config(hier::system_config config)
{
    config.sampling = *hier::parse_sampling_spec("periodic:1000:8000:400");
    return config;
}

TEST(sampled_run, reports_windows_and_confidence_interval)
{
    const auto workload = *wl::find_spec2006("429.mcf");
    const auto r = run_one(sampled_config(hier::presets::lnuca_l3(3)),
                           workload, 64000, 8000, 5);
    EXPECT_TRUE(r.sampled);
    EXPECT_EQ(r.sampled_windows, 8u);
    EXPECT_GE(r.measured_instructions, 8u * 1000u);
    EXPECT_GE(r.instructions, 64000u);
    EXPECT_GT(r.ipc, 0.05);
    EXPECT_LT(r.ipc, 4.0);
    EXPECT_GT(r.ipc_ci95, 0.0);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.energy.total(), 0.0);
    // Estimated load counts extrapolate the measured windows: roughly the
    // workload's load fraction of the full run, so far above the window
    // total alone.
    EXPECT_GT(r.loads_l1 + r.loads_fabric + r.loads_l3 + r.loads_memory,
              r.measured_instructions / 8);
}

TEST(sampled_run, same_seed_is_bit_identical_and_seeds_differ)
{
    const auto workload = *wl::find_spec2006("401.bzip2");
    const auto config = sampled_config(hier::presets::l2_256kb());
    const auto a = run_one(config, workload, 32000, 4000, 42);
    const auto b = run_one(config, workload, 32000, 4000, 42);
    expect_sim_fields_identical(a, b);
    const auto c = run_one(config, workload, 32000, 4000, 43);
    EXPECT_NE(a.cycles, c.cycles); // window placement + stream move together
}

TEST(sampled_run, serial_and_parallel_runner_agree)
{
    exp::sweep s;
    s.add_config(sampled_config(hier::presets::l2_256kb()))
        .add_config(sampled_config(hier::presets::lnuca_l3(2)))
        .add_config(sampled_config(hier::presets::dnuca_4x8()))
        .add_config(sampled_config(hier::presets::lnuca_dnuca(2)))
        .add_workload(*wl::find_spec2006("456.hmmer"))
        .add_workload(*wl::find_spec2006("470.lbm"))
        .instructions(24000)
        .warmup(3000)
        .base_seed(11);
    const exp::report serial = exp::run_sweep(s, {1});
    const exp::report parallel = exp::run_sweep(s, {8});
    ASSERT_EQ(serial.results.size(), 8u);
    ASSERT_EQ(parallel.results.size(), 8u);
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_TRUE(serial.results[i].sampled);
        expect_sim_fields_identical(serial.results[i], parallel.results[i]);
    }
}

// ---------------------------------------------------------------------------
// CMP warm coherence: the warm path applies the same MESI transitions the
// detailed transaction machinery would, synchronously and timing-free.
// ---------------------------------------------------------------------------

struct warm_cmp_harness {
    mem::txn_id_source ids;
    std::unique_ptr<coh::coherence_hub> hub;
    std::vector<std::unique_ptr<mem::conventional_cache>> l1s;
    std::unique_ptr<mem::conventional_cache> l2;

    warm_cmp_harness()
    {
        coh::coherence_config cc;
        cc.cores = 2;
        cc.block_bytes = 32;
        cc.directory_entries = 1024;
        hub = std::make_unique<coh::coherence_hub>(cc, ids);
        for (unsigned i = 0; i < 2; ++i) {
            mem::cache_config c;
            c.size_bytes = 1_KiB;
            c.ways = 2;
            c.block_bytes = 32;
            c.write_through = false;
            c.write_allocate = true;
            c.writeback_clean = true;
            c.coherent = true;
            c.core_id = mem::core_id_t(i);
            l1s.push_back(std::make_unique<mem::conventional_cache>(c, ids));
            l1s.back()->set_downstream(hub.get());
            hub->attach_l1(mem::core_id_t(i), l1s.back().get());
        }
        mem::cache_config l2c;
        l2c.size_bytes = 8_KiB;
        l2c.ways = 4;
        l2c.block_bytes = 32;
        l2 = std::make_unique<mem::conventional_cache>(l2c, ids);
        hub->set_downstream(l2.get());
    }

    mem::conventional_cache& l1(unsigned i) { return *l1s[i]; }
};

TEST(warm_cmp, warm_write_invalidates_remote_sharers)
{
    warm_cmp_harness h;
    // Both cores warm-read the block: S in both, directory tracks both.
    h.l1(0).warm_access({0x1000, mem::access_kind::read, false});
    h.l1(1).warm_access({0x1000, mem::access_kind::read, false});
    ASSERT_TRUE(h.l1(0).tags().probe(0x1000).has_value());
    ASSERT_TRUE(h.l1(1).tags().probe(0x1000).has_value());
    EXPECT_FALSE(h.l1(0).tags().is_exclusive(0x1000));
    h.hub->check_invariants();

    // Core 0 warm-writes: the remote copy must functionally invalidate and
    // the directory must record core 0 as the exclusive/modified owner.
    h.l1(0).warm_access({0x1000, mem::access_kind::write, false});
    EXPECT_FALSE(h.l1(1).tags().probe(0x1000).has_value());
    const auto hit = h.l1(0).tags().probe(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->was_dirty);
    EXPECT_TRUE(h.l1(0).tags().is_exclusive(0x1000));
    const coh::dir_entry* e = h.hub->dir().find(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, coh::dir_state::exclusive_modified);
    EXPECT_EQ(e->owner, mem::core_id_t(0));
    EXPECT_EQ(e->sharers, 1u);
    h.hub->check_invariants();
}

TEST(warm_cmp, warm_read_downgrades_owner_and_flushes_dirty_data)
{
    warm_cmp_harness h;
    // Core 0 warm-writes: M in core 0's L1. The RFO's backend fetch
    // warm-installed a clean copy in the shared level on the way.
    h.l1(0).warm_access({0x2000, mem::access_kind::write, false});
    EXPECT_TRUE(h.l1(0).tags().is_exclusive(0x2000));
    {
        const auto staged = h.l2->tags().probe(0x2000);
        ASSERT_TRUE(staged.has_value());
        EXPECT_FALSE(staged->was_dirty);
    }

    // Core 1 warm-reads: the owner downgrades to S (clean, no write
    // permission), the modified data flushes into the shared level, and
    // the requester installs a clean copy.
    h.l1(1).warm_access({0x2000, mem::access_kind::read, false});
    const auto owner = h.l1(0).tags().probe(0x2000);
    ASSERT_TRUE(owner.has_value());
    EXPECT_FALSE(owner->was_dirty);
    EXPECT_FALSE(h.l1(0).tags().is_exclusive(0x2000));
    const auto requester = h.l1(1).tags().probe(0x2000);
    ASSERT_TRUE(requester.has_value());
    EXPECT_FALSE(requester->was_dirty);
    EXPECT_FALSE(h.l1(1).tags().is_exclusive(0x2000));
    const auto below = h.l2->tags().probe(0x2000);
    ASSERT_TRUE(below.has_value());
    EXPECT_TRUE(below->was_dirty);
    const coh::dir_entry* e = h.hub->dir().find(0x2000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, coh::dir_state::shared);
    EXPECT_EQ(e->sharers, 3u);
    h.hub->check_invariants();
}

TEST(warm_cmp, warm_writeback_releases_directory_state)
{
    warm_cmp_harness h;
    h.l1(0).warm_access({0x3000, mem::access_kind::write, false});
    // Conflicting fills in the same set evict 0x3000 (2-way, 1KiB, 32B:
    // set stride 0x400); the warm victim writeback must clear the sharer
    // bit and ownership so the directory never leaks entries.
    h.l1(0).warm_access({0x3400, mem::access_kind::read, false});
    h.l1(0).warm_access({0x3800, mem::access_kind::read, false});
    EXPECT_FALSE(h.l1(0).tags().probe(0x3000).has_value());
    const coh::dir_entry* e = h.hub->dir().find(0x3000);
    EXPECT_TRUE(e == nullptr || e->sharers == 0u);
    const auto below = h.l2->tags().probe(0x3000);
    ASSERT_TRUE(below.has_value());
    EXPECT_TRUE(below->was_dirty);
    h.hub->check_invariants();
}

// ---------------------------------------------------------------------------
// Sampled CMP runs: dispatch, determinism, paranoid invariants.
// ---------------------------------------------------------------------------

hier::system_config cmp_sampled_config()
{
    auto config = hier::presets::cmp(hier::presets::l2_256kb(), 2);
    config.sampling = *hier::parse_sampling_spec("periodic:1000:8000:400");
    return config;
}

TEST(sampled_cmp, reports_windows_and_per_core_ipc)
{
    const auto workload =
        *trace::parse_workload_spec("scenario:producer_consumer");
    const auto r = run_one(cmp_sampled_config(), workload, 32000, 4000, 5);
    EXPECT_TRUE(r.sampled);
    EXPECT_EQ(r.cores, 2u);
    ASSERT_EQ(r.per_core_ipc.size(), 2u);
    EXPECT_GT(r.per_core_ipc[0], 0.0);
    EXPECT_GT(r.per_core_ipc[1], 0.0);
    EXPECT_GT(r.sampled_windows, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.ipc_ci95, 0.0);
}

TEST(sampled_cmp, same_seed_is_bit_identical)
{
    const auto workload = *wl::find_spec2006("429.mcf");
    const auto config = cmp_sampled_config();
    const auto a = run_one(config, workload, 24000, 3000, 42);
    const auto b = run_one(config, workload, 24000, 3000, 42);
    expect_sim_fields_identical(a, b);
}

TEST(sampled_cmp, sampling_off_matches_the_default_cmp_driver)
{
    const auto workload = *wl::find_spec2006("456.hmmer");
    const auto preset = hier::presets::cmp(hier::presets::lnuca_l3(3), 2);
    const auto plain = run_one(preset, workload, 2500, 500, 7);
    auto off = preset;
    off.sampling = *hier::parse_sampling_spec("off");
    const auto explicit_off = run_one(off, workload, 2500, 500, 7);
    expect_sim_fields_identical(plain, explicit_off);
    EXPECT_FALSE(explicit_off.sampled);
}

TEST(sampled_cmp, paranoid_engine_validates_every_warm_segment)
{
    // The paranoid schedule re-checks directory invariants after every
    // functional fast-forward; a warm MESI bug fails loudly here.
    auto config = cmp_sampled_config();
    config.engine_mode = sim::schedule_mode::paranoid;
    const auto workload = *trace::parse_workload_spec("scenario:ping_pong");
    const auto r = run_one(config, workload, 24000, 3000, 9);
    EXPECT_TRUE(r.sampled);
    EXPECT_EQ(r.cores, 2u);
}

TEST(sampled_run, ipc_tracks_the_full_fidelity_reference)
{
    // Statistical smoke test (the tight 3% gate lives in micro_sampling):
    // on a stationary workload the sampled estimate lands near the
    // full-fidelity IPC.
    const auto workload = *wl::find_spec2006("456.hmmer");
    const auto reference =
        run_one(hier::presets::l2_256kb(), workload, 60000, 10000, 3);
    auto config = hier::presets::l2_256kb();
    config.sampling = *hier::parse_sampling_spec("periodic:2000:10000:1000");
    const auto sampled = run_one(config, workload, 60000, 10000, 3);
    EXPECT_TRUE(sampled.sampled);
    EXPECT_LT(std::abs(sampled.ipc - reference.ipc) / reference.ipc, 0.10)
        << "sampled " << sampled.ipc << " vs reference " << reference.ipc;
}

} // namespace
} // namespace lnuca
