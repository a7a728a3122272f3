#include "src/mem/mshr.h"

#include <algorithm>
#include <stdexcept>

namespace lnuca::mem {

mshr_file::mshr_file(std::uint32_t entries, std::uint32_t max_targets)
    : capacity_(entries),
      max_targets_(max_targets),
      target_stride_(std::max(1u, max_targets)),
      index_(entries)
{
    if (entries == 0)
        throw std::invalid_argument("mshr_file needs at least one entry");
    slab_.resize(entries);
    target_pool_.resize(std::size_t(entries) * target_stride_);
    free_.reserve(entries);
    for (std::uint32_t i = 0; i < entries; ++i)
        free_.push_back(entries - 1 - i); // pop_back hands out slot 0 first
}

mshr_entry* mshr_file::find(addr_t block_addr)
{
    const std::uint32_t slot = index_.find(block_addr);
    return slot == slot_index::npos ? nullptr : &slab_[slot];
}

const mshr_entry* mshr_file::find(addr_t block_addr) const
{
    const std::uint32_t slot = index_.find(block_addr);
    return slot == slot_index::npos ? nullptr : &slab_[slot];
}

mshr_entry& mshr_file::allocate(addr_t block_addr, cycle_t now)
{
    if (free_.empty())
        throw std::logic_error("mshr_file::allocate without can_allocate");
    const std::uint32_t slot = free_.back();
    free_.pop_back();

    mshr_entry& e = slab_[slot];
    e.block_addr = block_addr;
    e.issued = false;
    e.for_write = false;
    e.allocated_at = now;
    e.target_count = 0;

    // Tail of the live list: allocation order.
    e.prev_live = tail_live_;
    e.next_live = -1;
    if (tail_live_ != -1)
        slab_[std::size_t(tail_live_)].next_live = std::int32_t(slot);
    else
        head_live_ = std::int32_t(slot);
    tail_live_ = std::int32_t(slot);

    // Tail of the unissued FIFO.
    e.prev_unissued = tail_unissued_;
    e.next_unissued = -1;
    if (tail_unissued_ != -1)
        slab_[std::size_t(tail_unissued_)].next_unissued = std::int32_t(slot);
    else
        head_unissued_ = std::int32_t(slot);
    tail_unissued_ = std::int32_t(slot);

    index_.insert(block_addr, slot);
    return e;
}

void mshr_file::add_target(mshr_entry& entry, const mshr_target& target)
{
    if (entry.target_count >= target_stride_)
        throw std::logic_error("mshr entry target overflow");
    target_pool_[std::size_t(slot_of(entry)) * target_stride_ +
                 entry.target_count] = target;
    ++entry.target_count;
}

const mshr_target* mshr_file::targets(const mshr_entry& entry) const
{
    return target_pool_.data() + std::size_t(slot_of(entry)) * target_stride_;
}

void mshr_file::mark_issued(mshr_entry& entry)
{
    if (entry.issued)
        return;
    entry.issued = true;
    if (entry.prev_unissued != -1)
        slab_[std::size_t(entry.prev_unissued)].next_unissued =
            entry.next_unissued;
    else
        head_unissued_ = entry.next_unissued;
    if (entry.next_unissued != -1)
        slab_[std::size_t(entry.next_unissued)].prev_unissued =
            entry.prev_unissued;
    else
        tail_unissued_ = entry.prev_unissued;
    entry.prev_unissued = -1;
    entry.next_unissued = -1;
}

mshr_file::released_entry mshr_file::release(addr_t block_addr)
{
    const std::uint32_t slot = index_.find(block_addr);
    if (slot == slot_index::npos)
        return {};
    mshr_entry& e = slab_[slot];

    released_entry out;
    out.valid = true;
    out.block_addr = e.block_addr;
    out.issued = e.issued;
    out.allocated_at = e.allocated_at;
    out.targets = target_pool_.data() + std::size_t(slot) * target_stride_;
    out.target_count = e.target_count;

    // Unlink from the live list.
    if (e.prev_live != -1)
        slab_[std::size_t(e.prev_live)].next_live = e.next_live;
    else
        head_live_ = e.next_live;
    if (e.next_live != -1)
        slab_[std::size_t(e.next_live)].prev_live = e.prev_live;
    else
        tail_live_ = e.prev_live;

    // Unlink from the unissued FIFO if still queued.
    if (!e.issued)
        mark_issued(e); // reuses the unlink; issued flag dies with the entry

    index_.erase(block_addr);
    e = mshr_entry{};
    free_.push_back(slot);
    return out;
}

mshr_entry* mshr_file::first_unissued()
{
    return head_unissued_ == -1 ? nullptr : &slab_[std::size_t(head_unissued_)];
}

mshr_entry* mshr_file::next_unissued(const mshr_entry& entry)
{
    return entry.next_unissued == -1 ? nullptr
                                     : &slab_[std::size_t(entry.next_unissued)];
}

mshr_entry* mshr_file::first_live()
{
    return head_live_ == -1 ? nullptr : &slab_[std::size_t(head_live_)];
}

mshr_entry* mshr_file::next_live(const mshr_entry& entry)
{
    return entry.next_live == -1 ? nullptr : &slab_[std::size_t(entry.next_live)];
}

const mshr_entry* mshr_file::first_live() const
{
    return head_live_ == -1 ? nullptr : &slab_[std::size_t(head_live_)];
}

const mshr_entry* mshr_file::next_live(const mshr_entry& entry) const
{
    return entry.next_live == -1 ? nullptr : &slab_[std::size_t(entry.next_live)];
}

} // namespace lnuca::mem
