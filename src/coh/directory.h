// MESI directory for the CMP coherence hub (src/coh/coherence_hub.h).
//
// One entry per block cached by any private L1: a sharer bitmask, the
// owner when the block is held exclusively, and a busy latch while a
// coherence transaction for the block is in flight. Conceptually the
// entry rides in the shared level's tags (sharer bits + owner id widen
// each tag; see DESIGN.md, "Coherence and the shared fabric"); the
// simulator keeps it in a dedicated structure so the same directory
// serves the conventional-L2, L-NUCA and D-NUCA shared backends without
// touching three tag pipelines.
//
// Storage follows the mem::mshr_file recipe: a fixed slab recycled
// through a free stack plus the shared slot_index (block -> slot,
// src/common/slot_index.h) - sized once at construction, never allocating
// afterwards (the executed-cycle zero-allocation gate covers the hub).
#pragma once

#include "src/common/slot_index.h"
#include "src/common/types.h"
#include "src/mem/request.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace lnuca::coh {

/// Directory-visible line state. E and M collapse into one state
/// (`exclusive_modified`): the owner upgrades E to M silently, which the
/// directory cannot observe - the classic EM encoding.
enum class dir_state : std::uint8_t {
    invalid,           ///< entry exists only while a transaction is in flight
    shared,            ///< >= 1 clean copies, no write permission anywhere
    exclusive_modified ///< exactly one copy, owner may have dirtied it
};

struct dir_entry {
    addr_t block = no_addr;
    std::uint32_t sharers = 0; ///< bit i: core i's L1 holds (or is fetching)
    mem::core_id_t owner = mem::no_core; ///< valid in exclusive_modified
    dir_state state = dir_state::invalid;
    std::int32_t txn = -1; ///< in-flight transaction slot; -1 = not busy
    bool live = false;

    bool busy() const { return txn >= 0; }

    template <class Ar> void serialize(Ar& ar)
    {
        ar(block);
        ar(sharers);
        ar(owner);
        ar(state);
        std::uint32_t txn_bits = std::uint32_t(txn);
        ar(txn_bits);
        txn = std::int32_t(txn_bits);
        ar(live);
    }
};

class directory {
public:
    explicit directory(std::uint32_t capacity)
        : capacity_(capacity), index_(capacity)
    {
        slab_.assign(capacity, dir_entry{});
        free_.reserve(capacity);
        for (std::uint32_t slot = capacity; slot-- > 0;)
            free_.push_back(slot);
    }

    dir_entry* find(addr_t block)
    {
        const std::uint32_t slot = index_.find(block);
        return slot == slot_index::npos ? nullptr : &slab_[slot];
    }

    const dir_entry* find(addr_t block) const
    {
        const std::uint32_t slot = index_.find(block);
        return slot == slot_index::npos ? nullptr : &slab_[slot];
    }

    /// Entry for `block`, creating an invalid one if absent. The capacity
    /// is sized from the L1s' reach (coherence_hub), so exhaustion is a
    /// logic error, not an operating condition.
    dir_entry& get_or_create(addr_t block)
    {
        if (dir_entry* e = find(block))
            return *e;
        if (free_.empty())
            throw std::logic_error("coh::directory capacity exhausted");
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        dir_entry& e = slab_[slot];
        e = dir_entry{};
        e.block = block;
        e.live = true;
        index_.insert(block, slot);
        ++version_;
        return e;
    }

    /// Free an entry that tracks no sharer and no transaction.
    void release_if_idle(dir_entry& e)
    {
        if (!e.live || e.busy() || e.sharers != 0)
            return;
        index_.erase(e.block);
        free_.push_back(std::uint32_t(&e - slab_.data()));
        e = dir_entry{};
        ++version_;
    }

    /// Bump on every mutation a caller performs in place (state/sharer
    /// edits); folded into the hub's state_digest so paranoid mode sees
    /// directory changes without hashing the whole slab.
    void touch() { ++version_; }
    std::uint64_t version() const { return version_; }

    std::size_t in_use() const { return slab_.size() - free_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    /// Iterate live entries (invariant checker, tests).
    template <typename F> void for_each(F&& f) const
    {
        for (const dir_entry& e : slab_)
            if (e.live)
                f(e);
    }

    /// Checkpoint support. The slab and free stack round-trip verbatim so
    /// slot recycling (and thus every later allocation decision) continues
    /// exactly as the uninterrupted run's; the index is rebuilt from the
    /// slab on load.
    template <class Ar> void serialize(Ar& ar)
    {
        ar(slab_);
        ar(free_);
        ar(version_);
        if constexpr (Ar::is_loading) {
            index_.clear();
            for (std::uint32_t slot = 0; slot < slab_.size(); ++slot)
                if (slab_[slot].live)
                    index_.insert(slab_[slot].block, slot);
        }
    }

private:
    std::uint32_t capacity_;
    std::vector<dir_entry> slab_;
    std::vector<std::uint32_t> free_; ///< free slot stack
    slot_index index_;                ///< block -> slot
    std::uint64_t version_ = 0;
};

} // namespace lnuca::coh
