// Out-of-order core model: predictors, TLB, pipeline throughput,
// dependencies, memory path, store buffer and mispredict handling.
#include "src/common/rng.h"
#include "src/cpu/branch_predictor.h"
#include "src/cpu/ooo_core.h"
#include "src/cpu/tlb.h"
#include "src/sim/engine.h"
#include "tests/counters_fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace lnuca::cpu {
namespace {

TEST(predictors, bimodal_learns_bias)
{
    bimodal_predictor p(1024);
    const addr_t pc = 0x400100;
    for (int i = 0; i < 8; ++i)
        p.update(pc, true);
    EXPECT_TRUE(p.predict(pc));
    for (int i = 0; i < 8; ++i)
        p.update(pc, false);
    EXPECT_FALSE(p.predict(pc));
}

TEST(predictors, gshare_learns_alternation)
{
    gshare_predictor p(10);
    const addr_t pc = 0x400200;
    // Alternating pattern is history-predictable.
    bool taken = false;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        taken = !taken;
        if (i > 200)
            correct += p.predict(pc) == taken ? 1 : 0;
        p.update(pc, taken);
    }
    EXPECT_GT(correct, 180); // near-perfect after warm-up
}

TEST(predictors, combined_beats_components_on_mixed_behaviour)
{
    combined_predictor combined;
    bimodal_predictor bimodal;
    const addr_t biased = 0x400300, alternating = 0x400304;
    int combined_ok = 0, bimodal_ok = 0, total = 0;
    bool alt = false;
    for (int i = 0; i < 2000; ++i) {
        alt = !alt;
        const bool t1 = true; // fully biased site keeps global history clean
        const bool c1 = combined.predict(biased);
        combined.update(biased, t1);
        const bool c2 = combined.predict(alternating);
        combined.update(alternating, alt);
        const bool b1 = bimodal.predict(biased);
        bimodal.update(biased, t1);
        const bool b2 = bimodal.predict(alternating);
        bimodal.update(alternating, alt);
        if (i > 1000) {
            total += 2;
            combined_ok += (c1 == t1) + (c2 == alt);
            bimodal_ok += (b1 == t1) + (b2 == alt);
        }
    }
    EXPECT_GT(combined_ok, bimodal_ok);
    EXPECT_GT(double(combined_ok) / total, 0.9);
}

TEST(tlb, hits_after_fill_and_lru_eviction)
{
    tlb t(2, 8192);
    EXPECT_FALSE(t.access(0x0));     // miss, fill
    EXPECT_TRUE(t.access(0x100));    // same page
    EXPECT_FALSE(t.access(0x4000));  // second page
    EXPECT_TRUE(t.access(0x0));      // still resident
    EXPECT_FALSE(t.access(0x8000));  // evicts LRU (0x4000's page)
    EXPECT_FALSE(t.access(0x4000));
    EXPECT_EQ(t.misses(), 4u);
    EXPECT_EQ(t.hits(), 2u);
}

// ---- Core harness --------------------------------------------------------

/// Scripted instruction stream cycling over a fixed pattern.
struct pattern_stream final : instruction_stream {
    std::vector<instruction> pattern;
    std::size_t next_index = 0;

    instruction next() override
    {
        instruction i = pattern[next_index];
        next_index = (next_index + 1) % pattern.size();
        return i;
    }
};

/// Instant L1: every access hits with a fixed latency.
struct instant_cache final : sim::ticked, mem::mem_port {
    explicit instant_cache(cycle_t latency) : latency_(latency) {}
    bool can_accept(const mem::mem_request&) const override { return true; }
    void accept(const mem::mem_request& r) override
    {
        ++accepted;
        if (r.needs_response)
            pending_.push(r.created_at + latency_ - 1, r);
    }
    void tick(cycle_t now) override
    {
        while (auto r = pending_.pop_ready(now)) {
            mem::mem_response resp;
            resp.id = r->id;
            resp.addr = r->addr;
            resp.ready_at = now;
            resp.served_by = mem::service_level::l1;
            if (client)
                client->respond(resp);
        }
    }
    cycle_t next_event(cycle_t now) const override
    {
        return std::max(now, pending_.next_ready());
    }
    cycle_t latency_;
    int accepted = 0;
    mem::mem_client* client = nullptr;
    sim::timed_queue<mem::mem_request> pending_;
};

struct core_harness {
    double run_ipc(pattern_stream& stream, std::uint64_t instructions,
                   cycle_t l1_latency = 2)
    {
        core = std::make_unique<ooo_core>(config, stream, ids);
        dcache = std::make_unique<instant_cache>(l1_latency);
        core->set_dcache(dcache.get());
        dcache->client = core.get();
        engine.add(*core);
        engine.add(*dcache);
        core->set_instruction_limit(instructions);
        engine.run_until([&] { return core->done(); },
                         400 * instructions + 10000);
        EXPECT_TRUE(core->done());
        return core->ipc();
    }

    core_config config;
    mem::txn_id_source ids;
    std::unique_ptr<ooo_core> core;
    std::unique_ptr<instant_cache> dcache;
    sim::engine engine;
};

struct core_fixture : ::testing::Test, core_harness {};

instruction alu(std::uint32_t dep = 0)
{
    instruction i;
    i.op = op_class::int_alu;
    i.dep[0] = dep;
    return i;
}

TEST_F(core_fixture, independent_alus_reach_issue_width)
{
    pattern_stream s;
    s.pattern = {alu(), alu(), alu(), alu()};
    const double ipc = run_ipc(s, 20000);
    // 4-wide INT issue and no dependences: IPC close to 4.
    EXPECT_GT(ipc, 3.4);
}

TEST_F(core_fixture, dependency_chain_serialises)
{
    pattern_stream s;
    s.pattern = {alu(1)}; // every op depends on the previous one
    const double ipc = run_ipc(s, 20000);
    EXPECT_NEAR(ipc, 1.0, 0.1);
}

TEST_F(core_fixture, fp_and_int_issue_in_parallel)
{
    pattern_stream s;
    instruction fp;
    fp.op = op_class::fp_add;
    s.pattern = {alu(), alu(), fp, fp};
    const double ipc_mixed = run_ipc(s, 20000);
    EXPECT_GT(ipc_mixed, 3.4); // 2 INT + 2 FP per cycle fits 4+4 widths
}

TEST_F(core_fixture, fp_div_latency_bounds_throughput)
{
    pattern_stream s;
    instruction divi;
    divi.op = op_class::fp_div;
    divi.dep[0] = 1; // serial divides
    s.pattern = {divi};
    const double ipc = run_ipc(s, 3000);
    EXPECT_LT(ipc, 1.0 / (config.lat_fp_div - 2));
}

TEST_F(core_fixture, load_latency_gates_dependents)
{
    pattern_stream s;
    instruction ld;
    ld.op = op_class::load;
    ld.addr = 0x1000;
    ld.size = 8;
    instruction chained_ld = ld;
    chained_ld.dep[0] = 2; // each load's address comes from the previous one
    s.pattern = {chained_ld, alu(1)};
    const double ipc_fast = run_ipc(s, 10000, 2);

    pattern_stream s2;
    s2.pattern = s.pattern;
    core_harness other;
    pattern_stream s3;
    s3.pattern = s.pattern;
    const double ipc_slow = other.run_ipc(s3, 10000, 12);
    EXPECT_GT(ipc_fast, ipc_slow * 1.5);
}

TEST_F(core_fixture, stores_drain_through_store_buffer)
{
    pattern_stream s;
    instruction st;
    st.op = op_class::store;
    st.addr = 0x2000;
    st.size = 8;
    s.pattern = {st, alu(), alu(), alu()};
    run_ipc(s, 8000);
    EXPECT_EQ(core->counters().get("stores_issued"),
              core->counters().get("stores"));
}

TEST_F(core_fixture, store_forwarding_serves_loads_locally)
{
    pattern_stream s;
    instruction st;
    st.op = op_class::store;
    st.addr = 0x3000;
    st.size = 8;
    instruction ld;
    ld.op = op_class::load;
    ld.addr = 0x3000;
    ld.size = 8;
    s.pattern = {st, ld, alu(), alu()};
    run_ipc(s, 8000);
    EXPECT_GT(core->counters().get("store_forwards"), 0u);
}

TEST_F(core_fixture, mispredicts_cost_throughput)
{
    pattern_stream predictable;
    instruction br;
    br.op = op_class::branch;
    br.pc = 0x400400;
    br.taken = true; // always taken: learned quickly
    predictable.pattern = {alu(), alu(), alu(), br};
    const double ipc_good = run_ipc(predictable, 20000);

    core_harness other;
    // Genuinely random outcomes defeat any predictor.
    struct random_branch_stream final : instruction_stream {
        rng random{17};
        int phase = 0;
        instruction next() override
        {
            if (phase++ % 4 != 3)
                return alu();
            instruction br;
            br.op = op_class::branch;
            br.pc = 0x400400;
            br.taken = random.chance(0.5);
            return br;
        }
    } random_branches;
    other.core = std::make_unique<ooo_core>(other.config, random_branches,
                                            other.ids);
    other.dcache = std::make_unique<instant_cache>(2);
    other.core->set_dcache(other.dcache.get());
    other.dcache->client = other.core.get();
    other.engine.add(*other.core);
    other.engine.add(*other.dcache);
    other.core->set_instruction_limit(20000);
    other.engine.run_until([&] { return other.core->done(); }, 2'000'000);
    const double ipc_bad = other.core->ipc();
    EXPECT_GT(ipc_good, ipc_bad * 1.3);
    EXPECT_GT(other.core->counters().get("branch_mispredicts"), 1000u);
}

TEST_F(core_fixture, tlb_misses_are_counted_and_penalised)
{
    pattern_stream s;
    instruction ld;
    ld.op = op_class::load;
    ld.size = 8;
    s.pattern.clear();
    // Loads striding over many pages blow the 64-entry TLB.
    for (int i = 0; i < 128; ++i) {
        instruction x = ld;
        x.addr = addr_t(i) * 8192 * 3;
        s.pattern.push_back(x);
    }
    run_ipc(s, 20000);
    EXPECT_GT(core->counters().get("dtlb_misses"), 100u);
}

TEST_F(core_fixture, rob_wraps_correctly_over_long_runs)
{
    pattern_stream s;
    s.pattern = {alu(), alu(3), alu(1), alu(2)};
    const double ipc = run_ipc(s, 50000);
    EXPECT_EQ(core->committed(), 50000u);
    EXPECT_GT(ipc, 0.5);
}

TEST_F(core_fixture, reset_stats_clears_counts)
{
    pattern_stream s;
    s.pattern = {alu()};
    run_ipc(s, 5000);
    core->reset_stats();
    EXPECT_EQ(core->committed(), 0u);
    EXPECT_EQ(core->cycles(), 0u);
    EXPECT_EQ(core->counters().get("loads"), 0u);
}

TEST_F(core_fixture, loads_served_accounting)
{
    pattern_stream s;
    instruction ld;
    ld.op = op_class::load;
    ld.addr = 0x9000;
    ld.size = 8;
    s.pattern = {ld, alu(), alu(), alu()};
    run_ipc(s, 8000);
    EXPECT_GT(core->loads_served_by(mem::service_level::l1), 0u);
}

TEST_F(core_fixture, odd_sized_rob_run_is_pinned_under_the_paranoid_engine)
{
    // A 70-entry ROB wraps across a partial 64-bit word of the scheduler's
    // ready-slot mask. The commit cycle and counters are pinned on the
    // whole-ROB issue scan; state_digest() after every cycle runs the
    // core's own consistency checks.
    config.rob_size = 70;
    rng random(11);
    pattern_stream s;
    for (int i = 0; i < 97; ++i) {
        instruction inst;
        switch (random.below(8)) {
        case 0: inst.op = op_class::int_mul; break;
        case 1: inst.op = op_class::fp_add; break;
        case 2: inst.op = op_class::fp_div; break;
        case 3:
        case 4:
            inst.op = op_class::load;
            inst.addr = 0x10000 + random.below(4096) * 8;
            break;
        case 5:
            inst.op = op_class::store;
            inst.addr = 0x10000 + random.below(4096) * 8;
            break;
        case 6:
            inst.op = op_class::branch;
            inst.pc = 0x400000 + addr_t(i) * 4;
            inst.taken = random.chance(0.7);
            break;
        default: break; // int_alu
        }
        inst.dep[0] = std::uint32_t(random.below(12));
        inst.dep[1] = std::uint32_t(random.below(40));
        s.pattern.push_back(inst);
    }
    core = std::make_unique<ooo_core>(config, s, ids);
    dcache = std::make_unique<instant_cache>(14);
    core->set_dcache(dcache.get());
    dcache->client = core.get();
    engine.add(*core);
    engine.add(*dcache);
    engine.set_mode(sim::schedule_mode::paranoid);
    core->set_instruction_limit(30000);
    while (!core->done() && engine.now() < 2'000'000) {
        engine.run(1);
        core->state_digest();
    }
    ASSERT_TRUE(core->done());
    EXPECT_GT(engine.cycles_skipped(), 0u);
    EXPECT_EQ(core->finished_at(), 30952u);
    EXPECT_EQ(counters_fingerprint(core->counters()), 0xb422febdc6ba2ef3ULL)
        << std::hex << counters_fingerprint(core->counters());
}

} // namespace
} // namespace lnuca::cpu
