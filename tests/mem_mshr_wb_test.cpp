// MSHR file and write buffer unit tests.
//
// The MSHR file is a fixed slab with an open-addressed block index, pooled
// target storage and intrusive live/unissued lists; the tests below cover
// the slab-specific behaviour (slot reuse, release-while-iterating, the
// target-pool boundary) on top of the original functional contract.
#include "src/mem/mshr.h"
#include "src/mem/write_buffer.h"

#include <gtest/gtest.h>

#include <vector>

namespace lnuca::mem {
namespace {

TEST(mshr, allocate_find_release)
{
    mshr_file m(4, 4);
    EXPECT_TRUE(m.can_allocate());
    EXPECT_EQ(m.find(0x100), nullptr);
    auto& e = m.allocate(0x100, 5);
    EXPECT_EQ(e.block_addr, 0x100u);
    EXPECT_EQ(e.allocated_at, 5u);
    EXPECT_NE(m.find(0x100), nullptr);
    const auto released = m.release(0x100);
    ASSERT_TRUE(bool(released));
    EXPECT_EQ(released.block_addr, 0x100u);
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(bool(m.release(0x100)));
}

TEST(mshr, capacity_limit)
{
    mshr_file m(2, 4);
    m.allocate(0x0, 0);
    m.allocate(0x40, 0);
    EXPECT_FALSE(m.can_allocate());
    m.release(0x0);
    EXPECT_TRUE(m.can_allocate());
}

TEST(mshr, secondary_merge_limit)
{
    // Components merge a secondary miss with find() + add_target(), bounded
    // by the entry's target count.
    mshr_file m(2, 2);
    auto& e = m.allocate(0x100, 0);
    m.add_target(e, {1, 0x100, access_kind::read, 0});
    mshr_entry* found = m.find(0x100);
    ASSERT_EQ(found, &e);
    EXPECT_LT(found->target_count, m.max_targets());
    m.add_target(*found, {2, 0x108, access_kind::read, 1});
    EXPECT_EQ(found->target_count, m.max_targets()); // 2 targets = limit
    EXPECT_EQ(m.targets(e)[1].id, 2u);
    EXPECT_EQ(m.find(0x999), nullptr); // absent block has no entry to merge
}

TEST(mshr, zero_max_targets_still_stores_the_primary_target)
{
    // A "no secondary merges" configuration must still track the demand
    // access that allocated the entry (the old vector-backed file did).
    mshr_file m(2, 0);
    auto& e = m.allocate(0x100, 0);
    m.add_target(e, {1, 0x100, access_kind::read, 0});
    EXPECT_EQ(e.target_count, 1u);
    EXPECT_GE(e.target_count, m.max_targets()); // no room for a secondary
    const auto out = m.release(0x100);
    ASSERT_TRUE(bool(out));
    ASSERT_EQ(out.target_count, 1u);
    EXPECT_EQ(out.targets[0].id, 1u);
}

TEST(mshr, add_target_beyond_pool_boundary_throws)
{
    mshr_file m(2, 2);
    auto& e = m.allocate(0x100, 0);
    m.add_target(e, {1, 0x100, access_kind::read, 0});
    m.add_target(e, {2, 0x104, access_kind::read, 0});
    EXPECT_THROW(m.add_target(e, {3, 0x108, access_kind::read, 0}),
                 std::logic_error);
}

TEST(mshr, unissued_tracking)
{
    mshr_file m(4, 4);
    m.allocate(0x0, 0);
    auto& b = m.allocate(0x40, 0);
    EXPECT_TRUE(m.any_unissued());
    // Unissued entries iterate in allocation order.
    mshr_entry* first = m.first_unissued();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->block_addr, 0x0u);
    mshr_entry* second = m.next_unissued(*first);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->block_addr, 0x40u);
    EXPECT_EQ(m.next_unissued(*second), nullptr);

    m.mark_issued(b);
    EXPECT_TRUE(b.issued);
    first = m.first_unissued();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->block_addr, 0x0u);
    EXPECT_EQ(m.next_unissued(*first), nullptr);

    m.mark_issued(*first);
    EXPECT_FALSE(m.any_unissued());
}

TEST(mshr, release_preserves_targets)
{
    mshr_file m(4, 4);
    auto& e = m.allocate(0x100, 0);
    m.add_target(e, {1, 0x104, access_kind::read, 0});
    m.add_target(e, {2, 0x110, access_kind::write, 1});
    const auto out = m.release(0x100);
    ASSERT_TRUE(bool(out));
    ASSERT_EQ(out.target_count, 2u);
    EXPECT_EQ(out.targets[1].kind, access_kind::write);
}

TEST(mshr, slab_slot_reuse_resets_entry_state)
{
    mshr_file m(2, 2);
    auto& a = m.allocate(0x100, 7);
    m.add_target(a, {1, 0x100, access_kind::read, 7});
    m.mark_issued(a);
    const std::uint32_t slot_a = m.slot_of(a);
    m.release(0x100);

    // The freed slot is handed out again, fully reset.
    auto& b = m.allocate(0x200, 9);
    EXPECT_EQ(m.slot_of(b), slot_a);
    EXPECT_EQ(b.block_addr, 0x200u);
    EXPECT_FALSE(b.issued);
    EXPECT_EQ(b.target_count, 0u);
    EXPECT_EQ(b.allocated_at, 9u);
    EXPECT_TRUE(m.any_unissued());
    EXPECT_EQ(m.find(0x100), nullptr);
    EXPECT_EQ(m.find(0x200), &b);
}

TEST(mshr, release_while_iterating_live_list)
{
    mshr_file m(4, 2);
    m.allocate(0x000, 0);
    m.allocate(0x040, 1);
    m.allocate(0x080, 2);
    m.allocate(0x0c0, 3);

    // The component pattern: fetch next before releasing the current entry.
    std::vector<addr_t> visited;
    for (mshr_entry* e = m.first_live(); e != nullptr;) {
        mshr_entry* next = m.next_live(*e);
        visited.push_back(e->block_addr);
        if (e->block_addr == 0x040 || e->block_addr == 0x0c0)
            m.release(e->block_addr);
        e = next;
    }
    EXPECT_EQ(visited, (std::vector<addr_t>{0x000, 0x040, 0x080, 0x0c0}));
    EXPECT_EQ(m.in_use(), 2u);

    // Remaining entries keep allocation order.
    visited.clear();
    for (mshr_entry* e = m.first_live(); e != nullptr; e = m.next_live(*e))
        visited.push_back(e->block_addr);
    EXPECT_EQ(visited, (std::vector<addr_t>{0x000, 0x080}));
}

TEST(mshr, index_survives_collision_chains_across_release)
{
    // Stress the open-addressed index: fill, release from the middle of
    // probe chains, verify every remaining block stays findable.
    mshr_file m(8, 1);
    std::vector<addr_t> blocks;
    for (addr_t b = 0; b < 8; ++b)
        blocks.push_back(0x1000 + b * 0x40);
    for (const addr_t b : blocks)
        m.allocate(b, 0);
    for (std::size_t i = 0; i < blocks.size(); i += 2)
        EXPECT_TRUE(bool(m.release(blocks[i])));
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (i % 2 == 0)
            EXPECT_EQ(m.find(blocks[i]), nullptr);
        else
            ASSERT_NE(m.find(blocks[i]), nullptr) << "block " << i;
    }
    // Refill the freed slots and check again.
    for (std::size_t i = 0; i < blocks.size(); i += 2)
        m.allocate(blocks[i], 1);
    for (const addr_t b : blocks)
        ASSERT_NE(m.find(b), nullptr);
    EXPECT_FALSE(m.can_allocate());
}

TEST(write_buffer, coalesces_same_block)
{
    write_buffer wb(2, 64);
    EXPECT_TRUE(wb.push(0x100, false, false));
    EXPECT_TRUE(wb.push(0x108, false, false)); // same 64B block
    EXPECT_EQ(wb.size(), 1u);
    EXPECT_TRUE(wb.push(0x200, true, true));
    EXPECT_EQ(wb.size(), 2u);
    EXPECT_TRUE(wb.full());
    EXPECT_FALSE(wb.push(0x300, false, false));
    EXPECT_TRUE(wb.push(0x130, false, false)); // coalesces into 0x100 block
}

TEST(write_buffer, contains_block_granularity)
{
    write_buffer wb(4, 64);
    wb.push(0x100, false, false);
    EXPECT_TRUE(wb.contains(0x100));
    EXPECT_TRUE(wb.contains(0x13f));
    EXPECT_FALSE(wb.contains(0x140));
}

TEST(write_buffer, head_flags_and_merge)
{
    write_buffer wb(4, 64);
    wb.push(0x100, false, false);
    EXPECT_FALSE(wb.head_is_writeback());
    EXPECT_FALSE(wb.head_is_dirty());
    wb.push(0x110, true, true); // merges: flags become sticky
    EXPECT_TRUE(wb.head_is_writeback());
    EXPECT_TRUE(wb.head_is_dirty());
}

TEST(write_buffer, fifo_drain_order)
{
    write_buffer wb(4, 64);
    wb.push(0x100, false, false);
    wb.push(0x200, false, false);
    ASSERT_EQ(*wb.head(), 0x100u);
    wb.pop();
    ASSERT_EQ(*wb.head(), 0x200u);
    wb.pop();
    EXPECT_TRUE(wb.empty());
    EXPECT_FALSE(wb.head().has_value());
}

} // namespace
} // namespace lnuca::mem
