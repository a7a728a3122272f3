// Cross-module integration and property tests on whole-system runs.
#include "src/hier/presets.h"
#include "src/hier/system.h"
#include "src/workloads/spec2006.h"

#include <gtest/gtest.h>

namespace lnuca::hier {
namespace {

TEST(integration, fabric_exclusion_holds_during_full_system_run)
{
    const auto workload = *wl::find_spec2006("401.bzip2");
    system sys(presets::lnuca_l3(3), workload, 3);
    sys.core().set_instruction_limit(15000);
    // Step in slices and check a sample of blocks for duplicates.
    for (int slice = 0; slice < 30 && !sys.core().done(); ++slice) {
        sys.engine().run(500);
        auto* fab = sys.fabric();
        ASSERT_NE(fab, nullptr);
        for (addr_t block = 0x10000000; block < 0x10000000 + 64 * 32;
             block += 32)
            ASSERT_LE(fab->copies_of(block), 1u);
    }
}

TEST(integration, no_false_global_misses_full_system)
{
    // The fabric counts false global misses only when paranoid; the
    // system passes the engine mode on to it.
    system_config config = presets::lnuca_l3(3);
    config.engine_mode = sim::schedule_mode::paranoid;
    const auto workload = *wl::find_spec2006("429.mcf");
    system sys(config, workload, 4);
    ASSERT_TRUE(sys.fabric()->paranoid());
    sys.core().set_instruction_limit(30000);
    sys.engine().run_until([&] { return sys.core().done(); }, 5'000'000);
    EXPECT_TRUE(sys.core().done());
    EXPECT_EQ(sys.fabric()->counters().get("false_global_misses"), 0u);
    EXPECT_EQ(sys.fabric()->counters().get("install_conflicts"), 0u);
}

TEST(integration, loads_issued_eventually_complete)
{
    // Every completed load is attributed to exactly one service level: the
    // row's loads_* fields sum to the cores' loads_completed counters (an
    // exact run without checkpointing measures one segment, so the core
    // counters cover the measured span).
    for (const system_config& base :
         {presets::l2_256kb(), presets::lnuca_l3(3), presets::dnuca_4x8(),
          presets::lnuca_dnuca(2)})
        for (const unsigned cores : {1u, 2u})
            for (const char* name : {"429.mcf", "470.lbm"}) {
                const system_config config =
                    cores == 1 ? base : presets::cmp(base, cores);
                system sys(config, *wl::find_spec2006(name), 1);
                const run_result r = sys.run(8000, 1000);
                std::uint64_t completed = 0;
                for (unsigned i = 0; i < sys.cores(); ++i)
                    completed += sys.core(i).counters().get("loads_completed");
                const std::uint64_t served =
                    r.loads_l1 + r.loads_fabric + r.loads_l2 + r.loads_l3 +
                    r.loads_dnuca + r.loads_memory + r.loads_peer;
                EXPECT_GT(completed, 0u) << config.name << " " << name;
                EXPECT_EQ(served, completed) << config.name << " " << name;
            }
}

TEST(integration, prewarm_keeps_memory_traffic_sane)
{
    // With the L3 prewarmed, a cache-friendly workload's memory traffic is
    // a small fraction of its loads.
    const auto workload = *wl::find_spec2006("456.hmmer");
    const auto r = run_one(presets::l2_256kb(), workload, 20000, 4000);
    EXPECT_LT(double(r.loads_memory),
              0.05 * double(r.loads_l1 + r.loads_l2 + r.loads_l3 + 1));
}

TEST(integration, lnuca_levels_nest)
{
    // Bigger fabrics serve at least as many loads from the fabric.
    const auto workload = *wl::find_spec2006("429.mcf");
    const auto ln2 = run_one(presets::lnuca_l3(2), workload, 25000, 5000);
    const auto ln4 = run_one(presets::lnuca_l3(4), workload, 25000, 5000);
    EXPECT_GT(ln4.loads_fabric, ln2.loads_fabric);
}

TEST(integration, transport_ratio_close_to_one)
{
    // Table III right: the custom topologies keep contention negligible.
    const auto workload = *wl::find_spec2006("433.milc");
    const auto r = run_one(presets::lnuca_l3(3), workload, 25000, 5000);
    ASSERT_GT(r.transport_min, 0u);
    const double ratio = double(r.transport_actual) / double(r.transport_min);
    EXPECT_GE(ratio, 1.0);
    EXPECT_LT(ratio, 1.10);
}

TEST(integration, search_restarts_are_rare)
{
    const auto workload = *wl::find_spec2006("470.lbm");
    const auto r = run_one(presets::lnuca_l3(3), workload, 25000, 5000);
    ASSERT_GT(r.searches, 0u);
    EXPECT_LT(double(r.search_restarts), 0.01 * double(r.searches));
}

TEST(integration, energy_breakdown_l3_dominates)
{
    const auto workload = *wl::find_spec2006("401.bzip2");
    const auto r = run_one(presets::lnuca_l3(3), workload, 15000, 3000);
    EXPECT_GT(r.energy.static_l3_j, r.energy.static_l1_j);
    EXPECT_GT(r.energy.static_l3_j, r.energy.static_storage_j);
}

struct workload_case {
    const char* name;
};

class all_configs_run : public ::testing::TestWithParam<workload_case> {};

TEST_P(all_configs_run, every_hierarchy_completes)
{
    const auto workload = *wl::find_spec2006(GetParam().name);
    for (const auto& config :
         {presets::l2_256kb(), presets::lnuca_l3(2), presets::lnuca_l3(3),
          presets::lnuca_l3(4), presets::dnuca_4x8(), presets::lnuca_dnuca(2),
          presets::lnuca_dnuca(3), presets::lnuca_dnuca(4)}) {
        const auto r = run_one(config, workload, 6000, 1000);
        EXPECT_GE(r.instructions, 6000u) << config.name;
        EXPECT_LE(r.instructions, 6008u) << config.name;
        EXPECT_GT(r.ipc, 0.02) << config.name;
    }
}

INSTANTIATE_TEST_SUITE_P(workloads, all_configs_run,
                         ::testing::Values(workload_case{"456.hmmer"},
                                           workload_case{"429.mcf"},
                                           workload_case{"462.libquantum"},
                                           workload_case{"470.lbm"},
                                           workload_case{"453.povray"}));

TEST(integration, lnuca_beats_baseline_on_fabric_friendly_load)
{
    // A workload whose reuse mass sits just beyond the L1 is the L-NUCA's
    // home turf: it must not lose to the conventional hierarchy.
    wl::workload_profile p = *wl::find_spec2006("429.mcf");
    p.reuse = {{0.55, 500}, {0.25, 1800}};
    p.p_new_block = 0.002;
    p.pointer_chase = 0.2;
    const auto base = run_one(presets::l2_256kb(), p, 60000, 25000);
    const auto ln = run_one(presets::lnuca_l3(3), p, 60000, 25000);
    EXPECT_GT(ln.ipc, 0.98 * base.ipc);
}

} // namespace
} // namespace lnuca::hier
