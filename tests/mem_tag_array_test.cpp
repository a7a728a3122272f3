// Tag array and replacement policy behaviour, including property-style
// parameterised sweeps over cache geometries.
#include "src/mem/replacement.h"
#include "src/mem/tag_array.h"

#include <gtest/gtest.h>

namespace lnuca::mem {
namespace {

tag_array_config small_config()
{
    tag_array_config c;
    c.size_bytes = 1_KiB;
    c.ways = 2;
    c.block_bytes = 32;
    return c;
}

TEST(tag_array, geometry)
{
    tag_array t(small_config());
    EXPECT_EQ(t.sets(), 16u);
    EXPECT_EQ(t.ways(), 2u);
    EXPECT_EQ(t.block_bytes(), 32u);
    EXPECT_EQ(t.size_bytes(), 1_KiB);
}

TEST(tag_array, rejects_bad_geometry)
{
    tag_array_config c = small_config();
    c.block_bytes = 48; // not a power of two
    EXPECT_THROW(tag_array{c}, std::invalid_argument);
}

TEST(tag_array, block_alignment_and_sets)
{
    tag_array t(small_config());
    EXPECT_EQ(t.block_of(0x1234), 0x1220u);
    EXPECT_EQ(t.set_of(0x0), t.set_of(0x1f));  // same block
    EXPECT_NE(t.set_of(0x0), t.set_of(0x20));  // next block, next set
}

TEST(tag_array, miss_then_hit)
{
    tag_array t(small_config());
    EXPECT_FALSE(t.lookup(0x100).has_value());
    EXPECT_FALSE(t.install(0x100, false).has_value());
    const auto hit = t.lookup(0x100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->was_dirty);
}

TEST(tag_array, install_duplicate_merges_dirty)
{
    tag_array t(small_config());
    t.install(0x100, false);
    EXPECT_FALSE(t.install(0x100, true).has_value());
    EXPECT_EQ(t.valid_count(), 1u);
    EXPECT_TRUE(t.probe(0x100)->was_dirty);
}

TEST(tag_array, set_dirty)
{
    tag_array t(small_config());
    t.install(0x100, false);
    t.set_dirty(0x100, true);
    EXPECT_TRUE(t.probe(0x100)->was_dirty);
    t.set_dirty(0x100, false);
    EXPECT_FALSE(t.probe(0x100)->was_dirty);
}

TEST(tag_array, eviction_returns_victim)
{
    tag_array t(small_config()); // 2 ways
    const addr_t s0a = 0x0, s0b = 0x200, s0c = 0x400; // same set (16 sets)
    ASSERT_EQ(t.set_of(s0a), t.set_of(s0b));
    ASSERT_EQ(t.set_of(s0a), t.set_of(s0c));
    t.install(s0a, true);
    t.install(s0b, false);
    const auto victim = t.install(s0c, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block_addr, s0a); // LRU
    EXPECT_TRUE(victim->dirty);
}

TEST(tag_array, lru_touch_protects)
{
    tag_array t(small_config());
    t.install(0x0, false);
    t.install(0x200, false);
    t.lookup(0x0); // make 0x200 the LRU
    const auto victim = t.install(0x400, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->block_addr, 0x200u);
}

TEST(tag_array, extract_removes)
{
    tag_array t(small_config());
    t.install(0x100, true);
    const auto line = t.extract(0x100);
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(line->dirty);
    EXPECT_FALSE(t.probe(0x100).has_value());
    EXPECT_FALSE(t.extract(0x100).has_value());
}

TEST(tag_array, set_has_free_way)
{
    tag_array t(small_config());
    EXPECT_TRUE(t.set_has_free_way(0x0));
    t.install(0x0, false);
    EXPECT_TRUE(t.set_has_free_way(0x0));
    t.install(0x200, false);
    EXPECT_FALSE(t.set_has_free_way(0x0));
    EXPECT_TRUE(t.set_has_free_way(0x20)); // different set untouched
}

TEST(tag_array, evict_victim_frees_way)
{
    tag_array t(small_config());
    t.install(0x0, false);
    t.install(0x200, true);
    t.lookup(0x200);
    const auto victim = t.evict_victim(0x0);
    EXPECT_EQ(victim.block_addr, 0x0u); // LRU of the set
    EXPECT_TRUE(t.set_has_free_way(0x0));
    EXPECT_EQ(t.valid_count(), 1u);
}

TEST(tag_array, install_present_in_later_way_beats_earlier_free_way)
{
    tag_array t(small_config()); // 2 ways
    t.install(0x0, false);       // way 0
    t.install(0x200, false);     // way 1, same set
    t.extract(0x0);              // way 0 free again
    EXPECT_FALSE(t.install(0x200, true).has_value());
    EXPECT_EQ(t.valid_count(), 1u); // refreshed in place, no duplicate
    EXPECT_FALSE(t.line(t.set_of(0x200), 0).valid);
    EXPECT_EQ(t.probe(0x200)->way, 1u);
    EXPECT_TRUE(t.probe(0x200)->was_dirty);
}

TEST(tag_array, install_fills_the_first_free_way)
{
    tag_array_config c = small_config();
    c.ways = 4;
    tag_array t(c); // 8 sets: 0x100 apart is the same set
    for (addr_t a = 0; a < 4; ++a)
        t.install(a * 0x100, false);
    t.extract(0x100); // way 1
    t.extract(0x200); // way 2
    EXPECT_FALSE(t.install(0x400, false).has_value());
    EXPECT_EQ(t.probe(0x400)->way, 1u);
    EXPECT_FALSE(t.install(0x500, false).has_value());
    EXPECT_EQ(t.probe(0x500)->way, 2u);
    EXPECT_FALSE(t.set_has_free_way(0x0));
}

TEST(tag_array, install_if_room_reports_present_installed_full)
{
    using room = tag_array::room_result;
    tag_array t(small_config()); // 2 ways: 0x0, 0x200, 0x400 share a set
    EXPECT_EQ(t.install_if_room(0x0), room::installed);
    EXPECT_EQ(t.install_if_room(0x210), room::installed);
    EXPECT_EQ(t.probe(0x200)->way, 1u);
    EXPECT_FALSE(t.probe(0x200)->was_dirty);

    // Present: recency is left alone, so 0x0 stays the LRU victim.
    EXPECT_EQ(t.install_if_room(0x8), room::present);
    EXPECT_EQ(t.install_if_room(0x400), room::full);
    EXPECT_FALSE(t.probe(0x400).has_value());
    EXPECT_EQ(t.valid_count(), 2u);
    EXPECT_EQ(t.evict_victim(0x0).block_addr, 0x0u);

    // A present block in a later way beats the free way before it.
    EXPECT_EQ(t.install_if_room(0x200), room::present);
    EXPECT_EQ(t.valid_count(), 1u);
}

TEST(tag_array, set_of_matches_block_number_modulo_sets)
{
    const addr_t probes[] = {0x0,
                             0x1f,
                             0x12345,
                             0xdeadbeef,
                             0x7fff'ffff'ffc0ULL,
                             0x1234'5678'9abc'def0ULL,
                             ~addr_t(0) - 1};
    for (const std::uint32_t block : {32u, 64u, 128u}) {
        tag_array_config c;
        c.size_bytes = 64_KiB;
        c.ways = 4;
        c.block_bytes = block;
        const tag_array t(c);
        for (const addr_t addr : probes)
            EXPECT_EQ(t.set_of(addr),
                      std::uint32_t((addr / block) & (t.sets() - 1)))
                << block << "-B blocks, address 0x" << std::hex << addr;
    }
}

TEST(replacement, factory_names)
{
    EXPECT_EQ(make_replacement_policy("lru").name(), "lru");
    EXPECT_EQ(make_replacement_policy("random").name(), "random");
    EXPECT_EQ(make_replacement_policy("fifo").name(), "fifo");
    EXPECT_THROW(make_replacement_policy("plru"), std::invalid_argument);
}

TEST(replacement, fifo_cycles_in_order)
{
    fifo_policy p;
    p.resize(1, 4);
    EXPECT_EQ(p.victim(0), 0u);
    EXPECT_EQ(p.victim(0), 1u);
    EXPECT_EQ(p.victim(0), 2u);
    EXPECT_EQ(p.victim(0), 3u);
    EXPECT_EQ(p.victim(0), 0u);
}

TEST(replacement, random_within_ways)
{
    random_policy p(99);
    p.resize(1, 4);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(p.victim(0), 4u);
}

TEST(replacement, lru_full_order)
{
    lru_policy p;
    p.resize(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        p.touch(0, w);
    p.touch(0, 0); // order now: 1 (oldest), 2, 3, 0
    EXPECT_EQ(p.victim(0), 1u);
}

// ---- Property sweep over geometries -------------------------------------

struct geometry_param {
    std::uint64_t size;
    std::uint32_t ways;
    std::uint32_t block;
};

class tag_array_sweep : public ::testing::TestWithParam<geometry_param> {};

TEST_P(tag_array_sweep, fill_whole_array_without_eviction)
{
    const auto p = GetParam();
    tag_array t({p.size, p.ways, p.block, "lru", 1});
    const std::uint64_t lines = p.size / p.block;
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_FALSE(t.install(i * p.block, false).has_value());
    EXPECT_EQ(t.valid_count(), lines);
    // One more block per set must displace exactly one line each.
    for (std::uint64_t i = 0; i < t.sets(); ++i)
        EXPECT_TRUE(t.install((lines + i) * p.block, false).has_value());
    EXPECT_EQ(t.valid_count(), lines);
}

TEST_P(tag_array_sweep, lru_stack_property)
{
    const auto p = GetParam();
    tag_array t({p.size, p.ways, p.block, "lru", 1});
    // Within one set, accessing blocks in order and then re-filling evicts
    // in exactly LRU order.
    const std::uint32_t stride = t.sets() * p.block;
    std::vector<addr_t> blocks;
    for (std::uint32_t w = 0; w < p.ways; ++w) {
        blocks.push_back(addr_t(w) * stride);
        t.install(blocks.back(), false);
    }
    for (std::uint32_t w = 0; w < p.ways; ++w) {
        const auto victim = t.install((p.ways + w) * std::uint64_t(stride), false);
        ASSERT_TRUE(victim.has_value());
        EXPECT_EQ(victim->block_addr, blocks[w]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    geometries, tag_array_sweep,
    ::testing::Values(geometry_param{1_KiB, 1, 32}, geometry_param{1_KiB, 2, 32},
                      geometry_param{8_KiB, 2, 32}, geometry_param{32_KiB, 4, 32},
                      geometry_param{256_KiB, 8, 64},
                      geometry_param{256_KiB, 2, 128},
                      geometry_param{8_MiB, 16, 128}));

} // namespace
} // namespace lnuca::mem
