// Warm-versus-detailed oracle. One seeded access sequence drives two
// identical rigs: rig A takes every access through the timed path
// (accept() + engine run until quiescent), rig B through warm_access().
// After every access the two rigs must hold the same content: every tag
// array's lines and replacement order, and every directory entry. Rig B's
// counters must all read 0 (the warm path is statistics-free).
//
// Rigs: (a) two coherent private L1s -> coherence hub -> L2 -> memory;
// (b) a standalone D-NUCA in front of memory; (c) an L-NUCA fabric in
// front of memory, driven as its r-tile would drive it. Footprints are
// small so evictions, sharing, downgrades, promotions and replacement
// dominoes happen constantly.
//
// Known divergences are named allowances (the "Allowance:" notes below),
// each applied to the sequence or the warm rig, never by loosening the
// comparison.
#include "src/coh/coherence_hub.h"
#include "src/common/rng.h"
#include "src/dnuca/dnuca_cache.h"
#include "src/fabric/lnuca_cache.h"
#include "src/mem/cache.h"
#include "src/mem/main_memory.h"
#include "src/sim/engine.h"
#include "tests/tag_content.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace lnuca {
namespace {

using mem::access_kind;
using lnuca::content_of;

std::string content_of(const coh::directory& dir)
{
    std::vector<std::string> entries;
    dir.for_each([&](const coh::dir_entry& e) {
        std::ostringstream out;
        out << std::hex << e.block << std::dec << " state "
            << int(e.state) << " sharers " << e.sharers << " owner "
            << int(e.owner) << " txn " << e.txn;
        entries.push_back(out.str());
    });
    std::sort(entries.begin(), entries.end());
    std::string all;
    for (const auto& e : entries)
        all += e + '\n';
    return all;
}

void expect_all_zero(const counter_set& counters, const std::string& who)
{
    for (const auto& [name, value] : counters.items())
        EXPECT_EQ(value, 0u) << who << " counter " << name
                             << " moved on the warm path";
}

struct sink final : mem::mem_client {
    void respond(const mem::mem_response&) override {}
};

/// Forwards every request to `to` and notes whether a warm writeback
/// passed (the L2 elision allowance below).
struct writeback_tap final : mem::mem_port {
    bool can_accept(const mem::mem_request& r) const override
    {
        return to->can_accept(r);
    }
    void accept(const mem::mem_request& r) override { to->accept(r); }
    mem::warm_result warm_access(const mem::warm_request& r) override
    {
        wrote_back = wrote_back || r.kind == access_kind::writeback;
        return to->warm_access(r);
    }

    mem::mem_port* to = nullptr;
    bool wrote_back = false;
};

mem::main_memory_config small_memory()
{
    mem::main_memory_config m;
    m.first_chunk_latency = 20;
    return m;
}

// ---------------------------------------------------------------------------
// Rig (a): 2 coherent L1s -> hub -> L2 -> memory.
// ---------------------------------------------------------------------------

struct cmp_rig {
    static constexpr unsigned k_cores = 2;

    cmp_rig()
    {
        coh::coherence_config cc;
        cc.cores = k_cores;
        cc.block_bytes = 32;
        cc.directory_entries = 256;
        cc.forward_clean_victims = false;
        hub = std::make_unique<coh::coherence_hub>(cc, ids);
        hub->set_paranoid(true);
        for (unsigned i = 0; i < k_cores; ++i) {
            mem::cache_config c;
            c.name = "L1#" + std::to_string(i);
            c.size_bytes = 512;
            c.ways = 2;
            c.block_bytes = 32;
            c.ports = 2;
            c.write_through = false;
            c.write_allocate = true;
            c.writeback_clean = true;
            c.coherent = true;
            c.core_id = mem::core_id_t(i);
            c.mshr_entries = 4;
            c.write_buffer_entries = 4;
            c.level_tag = mem::service_level::l1;
            l1s.push_back(std::make_unique<mem::conventional_cache>(c, ids));
            l1s.back()->set_upstream(&cores[i]);
            l1s.back()->set_downstream(hub.get());
            hub->attach_l1(mem::core_id_t(i), l1s.back().get());
        }
        mem::cache_config c;
        c.name = "L2";
        c.size_bytes = 2048;
        c.ways = 4;
        c.block_bytes = 64;
        c.completion_latency = 4;
        c.write_through = false;
        c.mshr_entries = 4;
        c.write_buffer_entries = 8;
        l2 = std::make_unique<mem::conventional_cache>(c, ids);
        memory = std::make_unique<mem::main_memory>(small_memory());
        tap.to = l2.get();
        hub->set_downstream(&tap);
        l2->set_upstream(hub.get());
        l2->set_downstream(memory.get());
        memory->set_upstream(l2.get());
        for (auto& l1 : l1s)
            engine.add(*l1);
        engine.add(*hub);
        engine.add(*l2);
        engine.add(*memory);
        engine.set_mode(sim::schedule_mode::paranoid);
    }

    bool quiescent() const
    {
        for (const auto& l1 : l1s)
            if (!l1->quiescent())
                return false;
        return hub->quiescent() && l2->quiescent() && memory->quiescent();
    }

    void timed(unsigned core, addr_t addr, access_kind kind)
    {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = addr;
        r.size = 8;
        r.kind = kind;
        r.created_at = engine.now();
        ASSERT_TRUE(l1s[core]->can_accept(r));
        l1s[core]->accept(r);
        ASSERT_TRUE(engine.run_until([&] { return quiescent(); }, 100000));
    }

    void warm(unsigned core, addr_t addr, access_kind kind)
    {
        l1s[core]->warm_access({addr, kind, false});
        hub->check_invariants();
        // Allowance: the L2's consecutive-duplicate elision. A warm read
        // that repeats the L2's last read block is skipped as a no-op, but
        // a writeback installed since then may have reordered (or evicted)
        // that block's set, so the skip loses the recency touch the timed
        // read makes (a finding, recorded in ROADMAP.md). After an access
        // that wrote back into the L2, rig B marks the L2's memo stale
        // with an empty tick, as detailed execution between warm segments
        // does.
        if (tap.wrote_back)
            l2->tick(engine.now());
        tap.wrote_back = false;
    }

    std::string content() const
    {
        std::string all;
        for (unsigned i = 0; i < k_cores; ++i)
            all += "L1#" + std::to_string(i) + '\n' +
                   content_of(l1s[i]->tags());
        all += "L2\n" + content_of(l2->tags());
        all += "directory\n" + content_of(hub->dir());
        return all;
    }

    mem::txn_id_source ids;
    sim::engine engine;
    sink cores[k_cores];
    std::vector<std::unique_ptr<mem::conventional_cache>> l1s;
    std::unique_ptr<coh::coherence_hub> hub;
    writeback_tap tap;
    std::unique_ptr<mem::conventional_cache> l2;
    std::unique_ptr<mem::main_memory> memory;
};

TEST(WarmOracle, CoherentL1sHubL2MatchTheTimedPathAccessByAccess)
{
    cmp_rig timed;
    cmp_rig warm;
    rng draw(0x0dac1e);
    // 160 blocks of 32B over two 16-line L1s and a 32-line L2; the low
    // quarter is hot so sharing, migration and upgrades recur.
    for (int i = 0; i < 6000; ++i) {
        const unsigned core = unsigned(draw.below(cmp_rig::k_cores));
        const std::uint64_t block =
            draw.below(4) == 0 ? draw.below(160) : draw.below(40);
        const addr_t addr = 0x10000 + block * 32 + draw.below(4) * 8;
        const access_kind kind =
            draw.below(3) == 0 ? access_kind::write : access_kind::read;
        timed.timed(core, addr, kind);
        warm.warm(core, addr, kind);
        ASSERT_EQ(timed.content(), warm.content())
            << "access " << i << ": core " << core << ' '
            << (kind == access_kind::write ? "write" : "read") << " 0x"
            << std::hex << addr;
    }
    for (unsigned i = 0; i < cmp_rig::k_cores; ++i)
        expect_all_zero(warm.l1s[i]->counters(), "L1");
    expect_all_zero(warm.hub->counters(), "hub");
    expect_all_zero(warm.l2->counters(), "L2");
    expect_all_zero(warm.memory->counters(), "memory");
}

// ---------------------------------------------------------------------------
// Rig (b): a standalone D-NUCA -> memory.
// ---------------------------------------------------------------------------

struct dnuca_rig {
    dnuca_rig()
    {
        dnuca::dnuca_config c;
        c.bank_sets = 2;
        c.rows = 3;
        c.bank_bytes = 512; // 4 lines of 128B, 2 sets x 2 ways
        c.bank_ways = 2;
        c.block_bytes = 128;
        c.mshr_entries = 4;
        cache = std::make_unique<dnuca::dnuca_cache>(c, ids);
        memory = std::make_unique<mem::main_memory>(small_memory());
        cache->set_upstream(&up);
        cache->set_downstream(memory.get());
        memory->set_upstream(cache.get());
        engine.add(*cache);
        engine.add(*memory);
        engine.set_mode(sim::schedule_mode::paranoid);
    }

    void timed(addr_t addr, access_kind kind, bool dirty)
    {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = addr;
        r.size = kind == access_kind::writeback ? 128 : 8;
        r.kind = kind;
        r.created_at = engine.now();
        r.needs_response = kind == access_kind::read;
        r.dirty = dirty;
        ASSERT_TRUE(cache->can_accept(r));
        cache->accept(r);
        ASSERT_TRUE(engine.run_until(
            [&] { return cache->quiescent() && memory->quiescent(); },
            100000));
    }

    void warm(addr_t addr, access_kind kind, bool dirty)
    {
        cache->warm_access({addr, kind, dirty});
    }

    bool holds(addr_t block) const
    {
        const auto& c = cache->config();
        const unsigned column =
            unsigned((block / c.block_bytes) % c.bank_sets);
        const addr_t local =
            (block / (addr_t(c.block_bytes) * c.bank_sets)) * c.block_bytes;
        for (unsigned row = 1; row <= c.rows; ++row)
            if (cache->bank_tags(column, row).probe(local))
                return true;
        return false;
    }

    std::string content() const
    {
        const auto& c = cache->config();
        std::string all;
        for (unsigned row = 1; row <= c.rows; ++row)
            for (unsigned col = 0; col < c.bank_sets; ++col)
                all += "bank " + std::to_string(col) + "," +
                       std::to_string(row) + '\n' +
                       content_of(cache->bank_tags(col, row));
        return all;
    }

    mem::txn_id_source ids;
    sim::engine engine;
    sink up;
    std::unique_ptr<dnuca::dnuca_cache> cache;
    std::unique_ptr<mem::main_memory> memory;
};

TEST(WarmOracle, DnucaMatchesTheTimedPathAccessByAccess)
{
    dnuca_rig timed;
    dnuca_rig warm;
    rng draw(0xd0ca);
    // Allowance: the controller's write-combining filter. A store or
    // writeback to a line a recent write probe confirmed present is
    // absorbed without probing the banks on the timed path (no recency
    // touch, and no re-install once the line has left); the warm path has
    // no such filter. The sequence skips those accesses. This mirrors the
    // controller's 64-entry ring.
    std::vector<addr_t> written;
    std::size_t written_cursor = 0;
    const auto filtered = [&](addr_t block) {
        return std::find(written.begin(), written.end(), block) !=
               written.end();
    };
    // 96 blocks of 128B over a 24-line array.
    for (int i = 0; i < 6000; ++i) {
        const addr_t block = 0x40000 + draw.below(96) * 128;
        const unsigned pick = unsigned(draw.below(6));
        const access_kind kind = pick < 4    ? access_kind::read
                                 : pick == 4 ? access_kind::write
                                             : access_kind::writeback;
        // Clean writebacks included: both paths dirty the line (no
        // hierarchy sends D-NUCA one, but the rule is defined).
        const bool dirty =
            kind == access_kind::writeback && draw.below(2) == 0;
        if (kind != access_kind::read && filtered(block))
            continue;
        const bool confirmed =
            kind != access_kind::read && timed.holds(block);
        const addr_t addr = block + draw.below(16) * 8;
        timed.timed(addr, kind, dirty);
        warm.warm(addr, kind, dirty);
        if (confirmed) {
            if (written.size() < 64) {
                written.push_back(block);
            } else {
                written[written_cursor] = block;
                written_cursor = (written_cursor + 1) % written.size();
            }
        }
        ASSERT_EQ(timed.content(), warm.content())
            << "access " << i << ": " << int(kind) << " 0x" << std::hex
            << addr;
    }
    expect_all_zero(warm.cache->counters(), "D-NUCA");
    expect_all_zero(warm.memory->counters(), "memory");
}

// ---------------------------------------------------------------------------
// Rig (c): an L-NUCA fabric -> memory.
// ---------------------------------------------------------------------------

struct fabric_rig {
    explicit fabric_rig(bool random_routing)
    {
        fabric::fabric_config c;
        c.levels = 3;
        c.tile.size_bytes = 128; // 4 lines of 32B, 2 sets x 2 ways
        c.tile.ways = 2;
        c.tile.block_bytes = 32;
        c.random_routing = random_routing;
        cache = std::make_unique<fabric::lnuca_cache>(c, ids);
        memory = std::make_unique<mem::main_memory>(small_memory());
        cache->set_upstream(&up);
        cache->set_downstream(memory.get());
        memory->set_upstream(cache.get());
        engine.add(*cache);
        engine.add(*memory);
        engine.set_mode(sim::schedule_mode::paranoid);
    }

    void timed(addr_t addr, access_kind kind, bool dirty)
    {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = addr;
        r.size = kind == access_kind::writeback ? 32 : 8;
        r.kind = kind;
        r.created_at = engine.now();
        r.needs_response = kind == access_kind::read;
        r.dirty = dirty;
        ASSERT_TRUE(cache->can_accept(r));
        cache->accept(r);
        ASSERT_TRUE(engine.run_until(
            [&] { return cache->quiescent() && memory->quiescent(); },
            100000));
    }

    void warm(addr_t addr, access_kind kind, bool dirty)
    {
        cache->warm_access({addr, kind, dirty});
    }

    std::string content() const
    {
        std::string all;
        for (fabric::tile_index i = 0; i < cache->geo().tile_count(); ++i)
            all += "tile " + std::to_string(i) + '\n' +
                   content_of(cache->tile_at(i).cache);
        return all;
    }

    mem::txn_id_source ids;
    sim::engine engine;
    sink up;
    std::unique_ptr<fabric::lnuca_cache> cache;
    std::unique_ptr<mem::main_memory> memory;
};

/// Drives `step(addr, kind, dirty)` with one seeded access sequence shaped
/// by the r-tile's content: a read or a store names a block the r-tile
/// does not hold (a read then moves it into the r-tile), a writeback one
/// it holds (an r-tile victim, which leaves it). A block the r-tile holds
/// is written back on half of its draws; the other half hit in the r-tile
/// and never reach the fabric, so they are skipped.
template <class Step> void drive_r_tile(std::uint64_t seed, Step step)
{
    rng draw(seed);
    std::vector<bool> in_r_tile(160, false);
    // 160 blocks of 32B over 56 fabric lines (14 tiles x 4).
    for (int i = 0; i < 6000; ++i) {
        const std::uint64_t block = draw.below(160);
        const addr_t addr = 0x20000 + block * 32;
        if (in_r_tile[block]) {
            if (draw.below(2) != 0)
                continue;
            in_r_tile[block] = false;
            if (!step(addr, access_kind::writeback, draw.below(2) == 0))
                return;
        } else {
            const bool store = draw.below(3) == 0;
            in_r_tile[block] = !store;
            if (!step(addr + draw.below(4) * 8,
                      store ? access_kind::write : access_kind::read, false))
                return;
        }
    }
}

const char* kind_name(access_kind kind)
{
    return kind == access_kind::read    ? "read"
           : kind == access_kind::write ? "store"
                                        : "writeback";
}

TEST(WarmOracle, FabricMatchesTheTimedPathAccessByAccess)
{
    // Fixed routing: both rigs always take the first On link, so the
    // timed domino and the warm one walk the same tiles.
    fabric_rig timed(false);
    fabric_rig warm(false);
    int compared = 0;
    drive_r_tile(0xfab1c, [&](addr_t addr, access_kind kind, bool dirty) {
        timed.timed(addr, kind, dirty);
        warm.warm(addr, kind, dirty);
        ++compared;
        EXPECT_EQ(timed.content(), warm.content())
            << "compared access " << compared << ": " << kind_name(kind)
            << (dirty ? " dirty" : "") << " 0x" << std::hex << addr;
        return !::testing::Test::HasFailure();
    });
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_GT(compared, 4000);
    expect_all_zero(warm.cache->counters(), "fabric");
    expect_all_zero(warm.memory->counters(), "memory");
}

TEST(WarmOracle, FabricKeepsContentExclusionUnderRandomRouting)
{
    // Random routing: the timed path also draws for transport hops, so the
    // two rigs' routing streams part and only exclusion is comparable.
    fabric_rig timed(true);
    fabric_rig warm(true);
    int compared = 0;
    drive_r_tile(0xfab1c, [&](addr_t addr, access_kind kind, bool dirty) {
        timed.timed(addr, kind, dirty);
        warm.warm(addr, kind, dirty);
        ++compared;
        for (std::uint64_t b = 0; b < 160; ++b) {
            const addr_t block = 0x20000 + b * 32;
            EXPECT_LE(timed.cache->copies_of(block), 1u)
                << "timed, compared access " << compared;
            EXPECT_LE(warm.cache->copies_of(block), 1u)
                << "warm, compared access " << compared;
        }
        return !::testing::Test::HasFailure();
    });
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_GT(compared, 4000);
    expect_all_zero(warm.cache->counters(), "fabric");
}

} // namespace
} // namespace lnuca
