// Miss Status Holding Registers.
//
// One entry per outstanding block miss; secondary misses to the same block
// merge into the entry up to a per-entry target limit (Table I: 16/16/8
// entries for L1/L2/L3 and 4 secondary misses per entry).
//
// Storage is a fixed slab sized at construction — no allocation ever happens
// after the constructor returns:
//
//   * entries live in a slab of `capacity` slots recycled through a free
//     stack;
//   * the shared slot_index (src/common/slot_index.h) maps block address
//     -> slot, so find() is O(1);
//   * live entries are threaded on an intrusive list in allocation order
//     (the order the old vector preserved), and unissued entries on a
//     second intrusive FIFO, so any_unissued() is O(1) and the issue scan
//     no longer builds a heap-allocated vector every tick;
//   * targets live in one pooled array of capacity x max_targets slots,
//     replacing the per-entry std::vector.
//
// release() returns a *view* whose target pointer aliases the pool; it
// stays valid until the released slot is re-allocated, which is always
// after the caller has finished responding to the targets.
#pragma once

#include "src/common/slot_index.h"
#include "src/common/types.h"
#include "src/mem/request.h"

#include <cstdint>
#include <vector>

namespace lnuca::mem {

struct mshr_target {
    txn_id_t id = 0;
    addr_t addr = no_addr; ///< original (unaligned) demanded address
    access_kind kind = access_kind::read;
    cycle_t created_at = 0;
};

struct mshr_entry {
    addr_t block_addr = no_addr;
    bool issued = false; ///< miss request sent downstream yet? Flip only
                         ///< through mshr_file::mark_issued (list upkeep).
    bool for_write = false; ///< coherent caches: miss needs ownership (RFO)
    cycle_t allocated_at = 0;
    std::uint32_t target_count = 0;

    // Intrusive list links (slab slot indices, -1 = none). Owned by
    // mshr_file; components never touch them.
    std::int32_t prev_live = -1;
    std::int32_t next_live = -1;
    std::int32_t prev_unissued = -1;
    std::int32_t next_unissued = -1;
};

class mshr_file {
public:
    mshr_file(std::uint32_t entries, std::uint32_t max_targets);

    /// Entry for `block_addr`, if one is outstanding. O(1) via the index.
    mshr_entry* find(addr_t block_addr);
    const mshr_entry* find(addr_t block_addr) const;

    /// Can a brand-new miss to `block_addr` allocate an entry?
    bool can_allocate() const { return free_.size() > 0; }

    /// Allocate a new entry (caller checked can_allocate).
    mshr_entry& allocate(addr_t block_addr, cycle_t now);

    /// Append a target to a live entry (caller bounds-checked; throws on
    /// overflow — a target-limit violation is a caller logic error).
    void add_target(mshr_entry& entry, const mshr_target& target);

    /// Pooled target storage of a live entry, [0, entry.target_count).
    const mshr_target* targets(const mshr_entry& entry) const;

    /// Snapshot of a released entry. `targets` points into the pool and
    /// remains valid until the freed slot is allocated again.
    struct released_entry {
        bool valid = false;
        addr_t block_addr = no_addr;
        bool issued = false;
        cycle_t allocated_at = 0;
        const mshr_target* targets = nullptr;
        std::uint32_t target_count = 0;

        explicit operator bool() const { return valid; }
    };

    /// Remove the entry when its refill arrives (no-op view when absent).
    released_entry release(addr_t block_addr);

    /// Mark an entry's miss as forwarded downstream (unlinks it from the
    /// unissued FIFO).
    void mark_issued(mshr_entry& entry);

    std::size_t in_use() const { return slab_.size() - free_.size(); }
    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t max_targets() const { return max_targets_; }
    bool empty() const { return in_use() == 0; }

    /// Is any entry still waiting to be forwarded downstream? (idle-skip
    /// next_event probe: an unissued miss retries every cycle.) O(1).
    bool any_unissued() const { return head_unissued_ != -1; }

    /// Oldest-allocated entry not yet forwarded downstream (issue-queue
    /// head; nullptr when none). Continue with next_unissued().
    mshr_entry* first_unissued();
    mshr_entry* next_unissued(const mshr_entry& entry);

    /// Live entries in allocation order (the order the old vector kept).
    /// Safe pattern for release-while-iterating: fetch next_live() *before*
    /// releasing the current entry.
    mshr_entry* first_live();
    mshr_entry* next_live(const mshr_entry& entry);
    const mshr_entry* first_live() const;
    const mshr_entry* next_live(const mshr_entry& entry) const;

    /// Slab slot of a live entry (stable for the entry's lifetime; parallel
    /// per-slot state in components indexes with this).
    std::uint32_t slot_of(const mshr_entry& entry) const
    {
        return std::uint32_t(&entry - slab_.data());
    }

private:
    std::uint32_t capacity_;
    std::uint32_t max_targets_;
    std::uint32_t target_stride_; ///< pool slots per entry: max(1, max_targets)
                                  ///< (the primary target is always storable,
                                  ///< matching the old vector-backed file)
    std::vector<mshr_entry> slab_;       ///< capacity_ slots
    std::vector<mshr_target> target_pool_; ///< capacity_ x max_targets_
    std::vector<std::uint32_t> free_;    ///< free slot stack
    slot_index index_;                   ///< block address -> slot

    std::int32_t head_live_ = -1;
    std::int32_t tail_live_ = -1;
    std::int32_t head_unissued_ = -1;
    std::int32_t tail_unissued_ = -1;
};

} // namespace lnuca::mem
