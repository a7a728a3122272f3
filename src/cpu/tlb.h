// Data TLB: fully-associative LRU over pages; misses add a fixed page-walk
// latency to the access (Table I: 30 cycles).
//
// Lookup goes through the shared slot_index (page -> entry,
// src/common/slot_index.h) instead of scanning the entry array, so the
// common hit costs O(1) - this sits on both the detailed issue path and the
// sampled fast-forward path. Replacement decisions are unchanged: the LRU
// victim scan only runs on a miss.
#pragma once

#include "src/common/slot_index.h"
#include "src/common/types.h"

#include <cstdint>
#include <vector>

namespace lnuca::cpu {

class tlb {
public:
    tlb(std::size_t entries, std::uint64_t page_bytes)
        : page_bytes_(page_bytes), entries_(entries, no_addr),
          last_use_(entries, 0), index_(entries)
    {
    }

    /// Touch the page containing `addr`; returns true on a TLB hit.
    bool access(addr_t addr)
    {
        const addr_t page = addr / page_bytes_;
        ++stamp_;
        const std::uint32_t hit = index_.find(page);
        if (hit != slot_index::npos) {
            last_use_[hit] = stamp_;
            ++hits_;
            return true;
        }
        // Miss: replace the LRU entry.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < entries_.size(); ++i)
            if (last_use_[i] < last_use_[victim])
                victim = i;
        if (entries_[victim] != no_addr)
            index_.erase(entries_[victim]);
        entries_[victim] = page;
        last_use_[victim] = stamp_;
        index_.insert(page, std::uint32_t(victim));
        ++misses_;
        return false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /// Checkpoint support. The page index is derived state: rebuilt from
    /// entries_ on load.
    template <class Ar> void serialize(Ar& ar)
    {
        ar(entries_);
        ar(last_use_);
        ar(stamp_);
        ar(hits_);
        ar(misses_);
        if constexpr (Ar::is_loading) {
            index_.clear();
            for (std::size_t i = 0; i < entries_.size(); ++i)
                if (entries_[i] != no_addr)
                    index_.insert(entries_[i], std::uint32_t(i));
        }
    }

private:
    std::uint64_t page_bytes_;
    std::vector<addr_t> entries_;
    std::vector<std::uint64_t> last_use_;
    slot_index index_; ///< page -> entry index
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace lnuca::cpu
