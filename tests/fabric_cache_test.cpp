// L-NUCA fabric behaviour: search/transport/replacement operations, global
// miss timing, exclusion, victim-cache flow, store handling and stats.
#include "src/fabric/lnuca_cache.h"
#include "src/sim/engine.h"
#include "tests/counters_fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

namespace lnuca::fabric {
namespace {

struct recorder final : mem::mem_client {
    std::map<txn_id_t, mem::mem_response> responses;
    void respond(const mem::mem_response& r) override { responses[r.id] = r; }
};

struct stub_next_level final : sim::ticked, mem::mem_port {
    explicit stub_next_level(cycle_t latency) : latency_(latency) {}

    bool can_accept(const mem::mem_request&) const override { return true; }
    void accept(const mem::mem_request& r) override
    {
        ++accepted;
        if (r.kind == mem::access_kind::read && r.needs_response)
            pending_.push(r.created_at + latency_, r);
        if (r.kind == mem::access_kind::writeback && r.dirty)
            ++dirty_writebacks;
        if (r.kind == mem::access_kind::write)
            ++word_writes;
    }
    void tick(cycle_t now) override
    {
        while (auto r = pending_.pop_ready(now)) {
            mem::mem_response resp;
            resp.id = r->id;
            resp.addr = r->addr;
            resp.ready_at = now;
            resp.served_by = mem::service_level::l3;
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
    int dirty_writebacks = 0;
    int word_writes = 0;
    mem::mem_client* client = nullptr;
    sim::timed_queue<mem::mem_request> pending_;
};

struct fabric_fixture : ::testing::Test {
    void build(unsigned levels = 3, cycle_t next_latency = 20)
    {
        config.levels = levels;
        fab = std::make_unique<lnuca_cache>(config, ids);
        next = std::make_unique<stub_next_level>(next_latency);
        fab->set_upstream(&client);
        fab->set_downstream(next.get());
        next->client = fab.get();
        engine.add(*fab);
        engine.add(*next);
    }

    txn_id_t read(addr_t addr)
    {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = addr;
        r.size = 8;
        r.kind = mem::access_kind::read;
        r.created_at = engine.now();
        EXPECT_TRUE(fab->can_accept(r));
        fab->accept(r);
        return r.id;
    }

    void store_miss(addr_t addr)
    {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = addr;
        r.size = 8;
        r.kind = mem::access_kind::write;
        r.needs_response = false;
        r.created_at = engine.now();
        EXPECT_TRUE(fab->can_accept(r));
        fab->accept(r);
    }

    void evict(addr_t addr, bool dirty)
    {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = addr;
        r.size = 32;
        r.kind = mem::access_kind::writeback;
        r.needs_response = false;
        r.dirty = dirty;
        r.created_at = engine.now();
        EXPECT_TRUE(fab->can_accept(r));
        fab->accept(r);
    }

    fabric_config config;
    mem::txn_id_source ids;
    recorder client;
    std::unique_ptr<lnuca_cache> fab;
    std::unique_ptr<stub_next_level> next;
    sim::engine engine;
};

TEST_F(fabric_fixture, global_miss_forwards_after_rings_plus_one)
{
    build(3);
    const cycle_t start = engine.now();
    read(0x1000);
    // Search: inject at start, ring 1 at +1, ring 2 at +2, miss line at +3.
    engine.run(3);
    EXPECT_EQ(next->accepted, 0);
    engine.run(1);
    EXPECT_EQ(next->accepted, 1);
    EXPECT_EQ(fab->counters().get("global_misses"), 1u);
    (void)start;
}

TEST_F(fabric_fixture, response_from_next_level_reaches_client)
{
    build(3, 20);
    const txn_id_t id = read(0x1000);
    engine.run(40);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_EQ(client.responses[id].served_by, mem::service_level::l3);
    EXPECT_EQ(client.responses[id].fabric_level, 0);
}

TEST_F(fabric_fixture, evicted_block_is_found_and_migrates_back)
{
    build(3);
    evict(0x2000, false);
    engine.run(10); // let the domino install it into a tile
    EXPECT_GT(fab->counters().get("tile_data_writes"), 0u);

    const txn_id_t id = read(0x2000);
    engine.run(12);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_EQ(client.responses[id].served_by, mem::service_level::lnuca_tile);
    EXPECT_EQ(client.responses[id].fabric_level, 2); // nearest level
    EXPECT_FALSE(client.responses[id].dirty);
    // Content exclusion: the block left the fabric when it migrated.
    EXPECT_EQ(fab->copies_of(0x2000), 0u);
    EXPECT_EQ(next->accepted, 0); // never went to the next level
}

TEST_F(fabric_fixture, dirty_state_survives_migration)
{
    build(3);
    evict(0x3000, true);
    engine.run(10);
    const txn_id_t id = read(0x3000);
    engine.run(12);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_TRUE(client.responses[id].dirty);
}

TEST_F(fabric_fixture, eviction_queue_snoop_hits_immediately)
{
    build(3);
    evict(0x4000, true);
    // Read in the same cycle: the block is still in the r-tile's output
    // buffers (the eviction queue).
    const txn_id_t id = read(0x4000);
    engine.run(4);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_EQ(client.responses[id].fabric_level, 2);
    EXPECT_TRUE(client.responses[id].dirty);
    EXPECT_EQ(fab->counters().get("root_ubuffer_hit"), 1u);
    EXPECT_EQ(fab->copies_of(0x4000), 0u);
}

TEST_F(fabric_fixture, u_buffer_comparators_catch_blocks_in_transit)
{
    build(3);
    // Keep evicting into the same set so blocks domino between tiles, then
    // search for one that is likely in transit.
    for (int i = 0; i < 12; ++i) {
        evict(0x8000 + addr_t(i) * 0x1000, false);
        engine.run(1);
    }
    const txn_id_t id = read(0x8000 + 11 * 0x1000);
    engine.run(20);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_EQ(client.responses[id].served_by, mem::service_level::lnuca_tile);
}

TEST_F(fabric_fixture, store_hit_dirties_in_place)
{
    build(3);
    evict(0x5000, false);
    engine.run(10);
    store_miss(0x5000);
    engine.run(8);
    EXPECT_EQ(fab->counters().get("store_hits_in_place"), 1u);
    EXPECT_EQ(next->word_writes, 0);
    // The block is still in the fabric (no migration for stores) and the
    // next read returns it dirty.
    const txn_id_t id = read(0x5000);
    engine.run(12);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_TRUE(client.responses[id].dirty);
}

TEST_F(fabric_fixture, store_global_miss_forwards_write)
{
    build(3);
    store_miss(0x6000);
    engine.run(10);
    EXPECT_EQ(next->word_writes, 1);
    EXPECT_EQ(fab->counters().get("write_misses_out"), 1u);
    EXPECT_TRUE(fab->quiescent());
}

TEST_F(fabric_fixture, store_merges_into_inflight_read)
{
    build(3, 20);
    const txn_id_t id = read(0x7000);
    engine.run(2);
    store_miss(0x7000); // merges; refill must come back dirty
    engine.run(40);
    ASSERT_TRUE(client.responses.count(id));
    EXPECT_TRUE(client.responses[id].dirty);
    EXPECT_EQ(fab->counters().get("store_merged"), 1u);
    EXPECT_EQ(next->word_writes, 0); // absorbed by the merge
}

TEST_F(fabric_fixture, demand_read_waits_for_pure_write_search)
{
    build(3);
    store_miss(0x9000);
    mem::mem_request r;
    r.id = ids.next();
    r.addr = 0x9000;
    r.kind = mem::access_kind::read;
    r.created_at = engine.now();
    EXPECT_FALSE(fab->can_accept(r)); // cannot merge into a pure write
    engine.run(10);                   // write search resolves
    r.created_at = engine.now();
    EXPECT_TRUE(fab->can_accept(r));
}

TEST_F(fabric_fixture, mshr_merges_reads_to_same_block)
{
    build(3, 20);
    const txn_id_t a = read(0xa000);
    engine.run(1);
    const txn_id_t b = read(0xa008);
    engine.run(40);
    EXPECT_TRUE(client.responses.count(a));
    EXPECT_TRUE(client.responses.count(b));
    EXPECT_EQ(next->accepted, 1);
    EXPECT_EQ(fab->counters().get("mshr_merge"), 1u);
}

TEST_F(fabric_fixture, capacity_spills_through_corner_exits)
{
    build(2); // 5 tiles = 1280 blocks
    // Push far more distinct blocks than the fabric holds.
    for (int i = 0; i < 2000; ++i) {
        evict(0x100000 + addr_t(i) * 32, i % 2 == 0);
        engine.run(2);
    }
    engine.run(500);
    EXPECT_GT(fab->counters().get("dirty_exits_written_back"), 0u);
    EXPECT_GT(fab->counters().get("clean_exits_dropped"), 0u);
    EXPECT_GT(next->dirty_writebacks, 0);
    // Occupancy cannot exceed capacity.
    std::uint64_t valid = 0;
    for (tile_index i = 0; i < fab->geo().tile_count(); ++i)
        valid += fab->tile_at(i).cache.valid_count();
    EXPECT_LE(valid, fab->tile_capacity_bytes() / 32);
}

/// Every tile of `fab` idle: no MA, nothing staged or buffered, no pending
/// install - the full walk the fabric's busy-tile mask stands in for.
bool all_tiles_idle(const lnuca_cache& fab)
{
    for (tile_index i = 0; i < fab.geo().tile_count(); ++i) {
        const tile& t = fab.tile_at(i);
        if (t.ma.has_value() || t.ma_next.has_value() ||
            t.phase != tile::repl_phase::idle)
            return false;
        for (const auto& fifo : t.d_in)
            if (!fifo.idle())
                return false;
        for (const auto& fifo : t.u_in)
            if (!fifo.idle())
                return false;
    }
    return true;
}

/// Protocol-respecting random driver: like a real r-tile, it only evicts
/// blocks it owns (obtained through a completed read) and never holds a
/// block it has evicted. The fabric must keep at most one copy of every
/// block at all times. `after_step` runs after every engine cycle.
template <class AfterStep>
void run_exclusion_stress(fabric_fixture& f, AfterStep after_step)
{
    f.build(3, 8);
    f.fab->set_paranoid(true); // count false global misses
    rng rng(7);
    std::vector<addr_t> blocks;
    for (int i = 0; i < 64; ++i)
        blocks.push_back(0x40000 + addr_t(i) * 32);

    std::set<addr_t> owned;    // blocks currently "in the L1"
    std::set<addr_t> fetching; // reads in flight
    std::map<txn_id_t, addr_t> inflight;

    for (int step = 0; step < 4000; ++step) {
        // Collect completed reads: those blocks are now owned.
        for (const auto& [id, response] : f.client.responses) {
            const auto it = inflight.find(id);
            if (it != inflight.end()) {
                owned.insert(it->second);
                fetching.erase(it->second);
                inflight.erase(it);
                break;
            }
        }

        const addr_t block = blocks[rng.below(blocks.size())];
        mem::mem_request r;
        r.id = f.ids.next();
        r.addr = block;
        r.created_at = f.engine.now();
        const auto pick = rng.below(3);
        if (pick == 0 && !owned.count(block) && !fetching.count(block)) {
            r.kind = mem::access_kind::read;
            if (f.fab->can_accept(r)) {
                f.fab->accept(r);
                fetching.insert(block);
                inflight[r.id] = block;
            }
        } else if (pick == 1 && !owned.count(block) && !fetching.count(block)) {
            r.kind = mem::access_kind::write;
            r.needs_response = false;
            if (f.fab->can_accept(r))
                f.fab->accept(r);
        } else if (pick == 2 && owned.count(block)) {
            r.kind = mem::access_kind::writeback;
            r.needs_response = false;
            r.dirty = rng.chance(0.5);
            if (f.fab->can_accept(r)) {
                f.fab->accept(r);
                owned.erase(block);
            }
        }
        f.engine.run(1);
        after_step();
        if (step % 64 == 0) {
            for (const addr_t b : blocks)
                ASSERT_LE(f.fab->copies_of(b) + (owned.count(b) ? 1u : 0u), 1u)
                    << "duplicate copy of a block";
        }
    }
    for (int n = 0; n < 2000; ++n) {
        f.engine.run(1);
        after_step();
    }
    EXPECT_TRUE(f.fab->quiescent());
    EXPECT_EQ(f.fab->counters().get("false_global_misses"), 0u);
    EXPECT_EQ(f.fab->counters().get("install_conflicts"), 0u);
}

TEST_F(fabric_fixture, exclusion_invariant_under_stress)
{
    run_exclusion_stress(*this, [] {});
}

TEST_F(fabric_fixture, stress_counters_are_pinned_under_the_paranoid_engine)
{
    // Pinned on the full-tile-walk fabric: a fabric that visits only busy
    // tiles must reproduce every counter. The paranoid engine checks each
    // skipped cycle is a no-op; state_digest() after every cycle runs the
    // fabric's own consistency checks, and a tile holding work must keep
    // the fabric from reporting quiescence.
    engine.set_mode(sim::schedule_mode::paranoid);
    run_exclusion_stress(*this, [&] {
        fab->state_digest();
        if (!all_tiles_idle(*fab)) {
            ASSERT_FALSE(fab->quiescent()) << "cycle " << engine.now();
        }
    });
    EXPECT_TRUE(all_tiles_idle(*fab));
    EXPECT_GT(engine.cycles_skipped(), 0u);
    EXPECT_EQ(counters_fingerprint(fab->counters()), 0xd1a3c263402a1f1ULL)
        << std::hex << counters_fingerprint(fab->counters());
}

TEST_F(fabric_fixture, prewarm_places_closest_first)
{
    build(3);
    // Fill exactly one Le2 tile set's worth and check level 2 got it.
    EXPECT_TRUE(fab->prewarm(0x1000));
    bool in_level2 = false;
    for (const tile_index i : fab->geo().tiles_in_level(2))
        in_level2 |= fab->tile_at(i).cache.probe(0x1000).has_value();
    EXPECT_TRUE(in_level2);
    // Duplicate prewarm keeps a single copy.
    EXPECT_TRUE(fab->prewarm(0x1000));
    EXPECT_EQ(fab->copies_of(0x1000), 1u);
}

TEST_F(fabric_fixture, prewarm_overflows_outward_then_fails_when_full)
{
    build(2); // capacity 1280 blocks
    std::uint64_t installed = 0;
    for (std::uint64_t j = 0; j < 4000; ++j)
        installed += fab->prewarm(0x200000 + j * 32) ? 1 : 0;
    EXPECT_EQ(installed, fab->tile_capacity_bytes() / 32);
}

TEST_F(fabric_fixture, transport_latency_equals_minimum_when_uncontended)
{
    build(4);
    // One isolated hit: actual transport time equals the no-contention
    // minimum (ratio exactly 1).
    evict(0xb000, false);
    engine.run(20);
    read(0xb000);
    engine.run(20);
    ASSERT_GT(fab->transport_min_cycles(), 0u);
    EXPECT_EQ(fab->transport_actual_cycles(), fab->transport_min_cycles());
}

TEST_F(fabric_fixture, per_level_hit_counters)
{
    build(3);
    evict(0xc000, false);
    engine.run(10);
    read(0xc000);
    engine.run(15);
    EXPECT_EQ(fab->read_hits_in_level(2) + fab->read_hits_in_level(3), 1u);
    // Levels outside 2..levels have no counter and read as zero.
    EXPECT_EQ(fab->read_hits_in_level(0), 0u);
    EXPECT_EQ(fab->read_hits_in_level(1), 0u);
    EXPECT_EQ(fab->read_hits_in_level(4), 0u);
}

TEST_F(fabric_fixture, search_bandwidth_one_per_cycle)
{
    build(2, 30);
    // Issue several distinct misses back-to-back; all must eventually be
    // forwarded (pipelined searches, no loss).
    std::vector<txn_id_t> ids_out;
    for (int i = 0; i < 6; ++i) {
        ids_out.push_back(read(0xd000 + addr_t(i) * 64));
        engine.run(1);
    }
    engine.run(80);
    for (const txn_id_t id : ids_out)
        EXPECT_TRUE(client.responses.count(id));
    EXPECT_EQ(next->accepted, 6);
}

TEST_F(fabric_fixture, quiescent_initially_and_after_traffic)
{
    build(3);
    EXPECT_TRUE(fab->quiescent());
    read(0xe000);
    EXPECT_FALSE(fab->quiescent());
    engine.run(60);
    EXPECT_TRUE(fab->quiescent());
}

} // namespace
} // namespace lnuca::fabric
