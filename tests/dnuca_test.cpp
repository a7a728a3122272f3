// D-NUCA baseline: mapping, multicast search, promotion, tail insertion,
// write handling and the controller protocol.
#include "src/common/rng.h"
#include "src/dnuca/dnuca_cache.h"
#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace lnuca::dnuca {
namespace {

struct recorder final : mem::mem_client {
    std::map<txn_id_t, mem::mem_response> responses;
    std::map<txn_id_t, unsigned> deliveries;
    void respond(const mem::mem_response& r) override
    {
        responses[r.id] = r;
        ++deliveries[r.id];
    }
};

struct stub_memory final : sim::ticked, mem::mem_port {
    bool can_accept(const mem::mem_request&) const override { return true; }
    void accept(const mem::mem_request& r) override
    {
        ++accepted;
        if (r.kind == mem::access_kind::read && r.needs_response)
            pending_.push(r.created_at + 100, r);
        if (r.kind == mem::access_kind::writeback)
            ++writebacks;
    }
    void tick(cycle_t now) override
    {
        while (auto r = pending_.pop_ready(now)) {
            mem::mem_response resp;
            resp.id = r->id;
            resp.addr = r->addr;
            resp.ready_at = now;
            resp.served_by = mem::service_level::memory;
            if (client)
                client->respond(resp);
        }
    }
    int accepted = 0;
    int writebacks = 0;
    mem::mem_client* client = nullptr;
    sim::timed_queue<mem::mem_request> pending_;
};

struct dnuca_fixture : ::testing::Test {
    void build()
    {
        cache = std::make_unique<dnuca_cache>(config, ids);
        memory = std::make_unique<stub_memory>();
        cache->set_upstream(&client);
        cache->set_downstream(memory.get());
        memory->client = cache.get();
        engine.add(*cache);
        engine.add(*memory);
    }

    txn_id_t read(addr_t addr)
    {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = addr;
        r.size = 8;
        r.kind = mem::access_kind::read;
        r.created_at = engine.now();
        EXPECT_TRUE(cache->can_accept(r));
        cache->accept(r);
        return r.id;
    }

    void write(addr_t addr)
    {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = addr;
        r.size = 8;
        r.kind = mem::access_kind::write;
        r.needs_response = false;
        r.created_at = engine.now();
        cache->accept(r);
    }

    dnuca_config config;
    mem::txn_id_source ids;
    recorder client;
    std::unique_ptr<dnuca_cache> cache;
    std::unique_ptr<stub_memory> memory;
    sim::engine engine;
};

TEST_F(dnuca_fixture, size_is_8mb)
{
    build();
    EXPECT_EQ(cache->size_bytes(), 8_MiB);
}

TEST_F(dnuca_fixture, miss_probes_all_rows_then_memory)
{
    build();
    const txn_id_t id = read(0x10000);
    engine.run(200);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_EQ(client.responses[id].served_by, mem::service_level::memory);
    EXPECT_EQ(cache->counters().get("bank_lookups"), config.rows);
    EXPECT_EQ(cache->counters().get("read_misses"), 1u);
    EXPECT_EQ(memory->accepted, 1);
}

TEST_F(dnuca_fixture, fill_then_hit_without_memory)
{
    build();
    const txn_id_t a = read(0x10000);
    engine.run(200);
    ASSERT_TRUE(client.responses.count(a));
    const txn_id_t b = read(0x10000);
    engine.run(80);
    ASSERT_TRUE(client.responses.count(b));
    EXPECT_EQ(client.responses[b].served_by, mem::service_level::dnuca);
    EXPECT_EQ(memory->accepted, 1);
    EXPECT_EQ(cache->counters().get("read_hits"), 1u);
}

TEST_F(dnuca_fixture, hit_is_much_faster_than_miss)
{
    build();
    cache->prewarm(0x20000);
    const cycle_t t0 = engine.now();
    const txn_id_t id = read(0x20000);
    engine.run_until([&] { return client.responses.count(id) > 0; }, 400);
    const cycle_t hit_latency = engine.now() - t0;
    EXPECT_LT(hit_latency, 60u);
    EXPECT_GT(hit_latency, 5u);
}

TEST_F(dnuca_fixture, promotion_moves_block_towards_controller)
{
    build();
    // Install at tail via memory fill, then hit it repeatedly: generational
    // promotion lifts it one row per hit until row 1.
    const txn_id_t a = read(0x30000);
    engine.run(200);
    ASSERT_TRUE(client.responses.count(a));
    for (int i = 0; i < int(config.rows); ++i) {
        read(0x30000);
        engine.run(120);
    }
    EXPECT_GT(cache->counters().get("promotions"), 0u);
    EXPECT_GT(cache->hits_in_row(1) + cache->hits_in_row(2), 0u);
}

TEST_F(dnuca_fixture, prewarm_spreads_rows_and_retains_window)
{
    build();
    // An 8MB-resident window must fit entirely.
    const std::uint64_t lines = cache->size_bytes() / config.block_bytes;
    for (std::uint64_t i = 0; i < lines; ++i)
        cache->prewarm(0x100000 + i * config.block_bytes);
    // Spot-check: random lines from the window hit without memory traffic.
    const txn_id_t id = read(0x100000 + 12345 * config.block_bytes);
    engine.run(120);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_EQ(client.responses[id].served_by, mem::service_level::dnuca);
    EXPECT_EQ(memory->accepted, 0);
}

TEST_F(dnuca_fixture, write_miss_installs_at_tail)
{
    build();
    write(0x40000);
    engine.run(120);
    EXPECT_EQ(cache->counters().get("write_installs"), 1u);
    // Subsequent read hits on-chip.
    const txn_id_t id = read(0x40000);
    engine.run(120);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_EQ(client.responses[id].served_by, mem::service_level::dnuca);
}

TEST_F(dnuca_fixture, write_hit_sets_dirty_and_acks)
{
    build();
    cache->prewarm(0x50000);
    write(0x50000);
    engine.run(120);
    EXPECT_EQ(cache->counters().get("bank_write_hits"), 1u);
    EXPECT_EQ(cache->counters().get("write_installs"), 0u);
}

TEST_F(dnuca_fixture, writes_coalesce_while_in_flight)
{
    build();
    write(0x60000);
    write(0x60008); // same 128B line, probe still in flight
    read(0x61000);  // a demand read probes on its own
    read(0x62000);
    engine.run(120);
    EXPECT_EQ(cache->counters().get("writes_coalesced"), 1u);
    EXPECT_EQ(cache->counters().get("write_probes"), 1u);
    EXPECT_EQ(cache->counters().get("read_probes"), 2u);
}

TEST_F(dnuca_fixture, written_line_filter_absorbs_repeat_stores)
{
    build();
    cache->prewarm(0x70000);
    write(0x70000);
    engine.run(120); // resolves; line remembered as dirty
    write(0x70010);
    engine.run(20);
    EXPECT_EQ(cache->counters().get("writes_filtered"), 1u);
}

TEST_F(dnuca_fixture, mshr_merges_same_block_reads)
{
    build();
    const txn_id_t a = read(0x80000);
    engine.run(1);
    const txn_id_t b = read(0x80008);
    engine.run(250);
    EXPECT_TRUE(client.responses.count(a));
    EXPECT_TRUE(client.responses.count(b));
    EXPECT_EQ(memory->accepted, 1);
}

TEST_F(dnuca_fixture, timed_search_finds_every_prewarmed_line)
{
    build();
    // Lines scattered over the whole address space, high bits included:
    // the timed search must find each one where prewarm() put it, and the
    // hits must come from every row. The test names no mapping of its own,
    // so it holds prewarm() to whatever column_of() and to_bank_addr() say.
    std::uint64_t state = 0x5eed;
    std::vector<addr_t> lines;
    for (int i = 0; i < 64; ++i)
        lines.push_back(splitmix64(state) & 0xffff'ffff'ff80ull);
    for (const addr_t line : lines)
        cache->prewarm(line);
    for (const addr_t line : lines) {
        const txn_id_t id = read(line + 8);
        engine.run_until([&] { return client.responses.count(id) > 0; }, 400);
        ASSERT_TRUE(client.responses.count(id)) << std::hex << line;
        EXPECT_EQ(client.responses[id].served_by, mem::service_level::dnuca)
            << std::hex << line;
    }
    EXPECT_EQ(memory->accepted, 0);
    for (unsigned row = 1; row <= config.rows; ++row)
        EXPECT_GT(cache->hits_in_row(row), 0u) << "row " << row;
}

TEST_F(dnuca_fixture, column_mapping_uses_block_bits)
{
    build();
    // Blocks 128B apart map to consecutive columns; the bank-local address
    // round-trips through the remapping helpers.
    // (verified indirectly: filling one column's share does not evict
    // another column's lines)
    for (unsigned i = 0; i < 64; ++i)
        cache->prewarm(addr_t(i) * 128);
    const txn_id_t id = read(0x0);
    engine.run(120);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_EQ(client.responses[id].served_by, mem::service_level::dnuca);
}

TEST_F(dnuca_fixture, quiescent_after_drain)
{
    build();
    read(0x90000);
    write(0xa0000);
    engine.run(600);
    EXPECT_TRUE(cache->quiescent());
}

TEST_F(dnuca_fixture, row_hit_statistics_accumulate)
{
    build();
    cache->prewarm(0xb0000);
    read(0xb0000);
    engine.run(150);
    std::uint64_t total = 0;
    for (unsigned row = 1; row <= config.rows; ++row)
        total += cache->hits_in_row(row);
    EXPECT_EQ(total, 1u);
}

TEST_F(dnuca_fixture, late_nacks_after_an_early_hit_are_orphans)
{
    // Requests are tracked by a monotonic probe-set (group) id. A read that
    // hits in row 1 retires on the data reply, so nacks of the farther rows
    // arriving later find a closed group and count as orphan replies. A
    // second read of the block, issued while the first read's nacks are
    // still in flight, opens a new group: the stale nacks must not resolve
    // against it, and it is answered exactly once. Of the six nacks, one
    // overtakes its own group's five-flit reply and is absorbed by that
    // live group; the other five are orphans.
    build();
    cache->prewarm(0x20000); // lands in row 1
    const txn_id_t a = read(0x20000);
    engine.run_until([&] { return client.responses.count(a) > 0; }, 400);
    ASSERT_EQ(client.deliveries[a], 1u);
    EXPECT_EQ(cache->hits_in_row(1), 1u);
    EXPECT_EQ(cache->counters().get("orphan_reply"), 0u);

    const txn_id_t b = read(0x20000);
    engine.run(400);
    EXPECT_EQ(client.deliveries[a], 1u);
    EXPECT_EQ(client.deliveries[b], 1u);
    EXPECT_EQ(client.responses[b].served_by, mem::service_level::dnuca);
    EXPECT_EQ(cache->hits_in_row(1), 2u);
    EXPECT_EQ(cache->counters().get("read_hits"), 2u);
    EXPECT_EQ(cache->counters().get("read_misses"), 0u);
    EXPECT_EQ(cache->counters().get("bank_lookups"), 2 * config.rows);
    EXPECT_EQ(cache->counters().get("orphan_reply"), 5u);
    EXPECT_EQ(memory->accepted, 0);
    EXPECT_TRUE(cache->quiescent());
}

TEST_F(dnuca_fixture, request_slab_grows_past_its_initial_size)
{
    // The probe-set slab starts at 4 x mshr_entries slots. With one MSHR, a
    // burst of ten write probe sets doubles it twice; the re-indexed sets
    // still coalesce a store to an in-flight line and all complete.
    config.mshr_entries = 1;
    build();
    for (unsigned i = 0; i < 10; ++i)
        write(0x200000 + addr_t(i) * 0x1000);
    write(0x200008); // the first write's line, still in flight
    const txn_id_t id = read(0x300000);
    engine.run(2000);
    EXPECT_EQ(cache->counters().get("write_probes"), 10u);
    EXPECT_EQ(cache->counters().get("writes_coalesced"), 1u);
    EXPECT_EQ(cache->counters().get("write_installs"), 10u);
    EXPECT_EQ(cache->counters().get("read_misses"), 1u);
    EXPECT_EQ(client.deliveries[id], 1u);
    EXPECT_TRUE(cache->quiescent());
}

TEST_F(dnuca_fixture, flit_hops_counter_matches_router_forwards)
{
    build();
    cache->prewarm(0xb0000);
    read(0xb0000);
    read(0xc0000);
    write(0xd0000);
    engine.run(600);
    std::uint64_t forwarded = 0;
    for (int y = 0; y < cache->mesh().height(); ++y)
        for (int x = 0; x < cache->mesh().width(); ++x)
            forwarded += cache->mesh().at({x, y}).counters().get("forwarded");
    EXPECT_GT(forwarded, 0u);
    EXPECT_EQ(cache->counters().get("flit_hops"), forwarded);
}

} // namespace
} // namespace lnuca::dnuca
