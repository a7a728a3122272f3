// Fixed-capacity open-addressed index: u64 key -> u32 value.
//
// The one hash index behind every keyed table in the simulator: MSHR
// block -> slab slot, CMP directory block -> slab slot, data TLB page ->
// entry, L-NUCA warm block -> holding tile, and D-NUCA probe-set group ->
// request slot plus write line -> request slot.
//
// Home bucket hash64(key), linear probing, classic backward-shift erase (no
// tombstones). Buckets are the power of two >= 2 x capacity, so the load
// factor never exceeds 1/2 and every probe ends at an empty bucket. The
// bucket array is allocated once in the constructor; find/insert/erase
// never touch the heap. Nothing iterates an index, so the bucket layout is
// never observable: owners that need an order keep it themselves (slab
// order, intrusive lists, free stacks).
#pragma once

#include "src/common/ring_queue.h" // pow2_at_least
#include "src/common/rng.h"        // hash64

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace lnuca {

class slot_index {
public:
    /// find() result for an absent key; never a storable value.
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    explicit slot_index(std::size_t capacity)
        : capacity_(capacity),
          buckets_(pow2_at_least(2 * capacity)),
          mask_(buckets_.size() - 1)
    {
    }

    /// Value mapped to `key`, or npos.
    std::uint32_t find(std::uint64_t key) const
    {
        return buckets_[probe(key)].value;
    }

    /// Map `key` to `value`, overwriting an existing mapping. Throws when a
    /// new key would exceed the capacity (a caller sizing error).
    void insert(std::uint64_t key, std::uint32_t value)
    {
        bucket& b = buckets_[probe(key)];
        if (b.value == npos) {
            if (size_ == capacity_)
                throw std::logic_error("slot_index capacity exceeded");
            b.key = key;
            ++size_;
        }
        b.value = value;
    }

    /// Remove `key`; false (touching nothing) when absent.
    bool erase(std::uint64_t key)
    {
        std::size_t hole = probe(key);
        if (buckets_[hole].value == npos)
            return false;
        // Backward shift: pull each later member of the probe cluster into
        // the hole unless its home lies cyclically in (hole, j], so every
        // remaining key stays reachable from its home.
        for (std::size_t j = (hole + 1) & mask_; buckets_[j].value != npos;
             j = (j + 1) & mask_) {
            const std::size_t home = home_of(buckets_[j].key);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                buckets_[hole] = buckets_[j];
                hole = j;
            }
        }
        buckets_[hole].value = npos;
        --size_;
        return true;
    }

    void clear()
    {
        for (bucket& b : buckets_)
            b.value = npos;
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return capacity_; }

private:
    struct bucket {
        std::uint64_t key = 0;
        std::uint32_t value = npos; ///< npos = empty
    };

    std::size_t home_of(std::uint64_t key) const
    {
        return std::size_t(hash64(key)) & mask_;
    }

    /// Bucket holding `key`, or the empty bucket that ends its probe.
    std::size_t probe(std::uint64_t key) const
    {
        std::size_t b = home_of(key);
        while (buckets_[b].value != npos && buckets_[b].key != key)
            b = (b + 1) & mask_;
        return b;
    }

    std::size_t capacity_;
    std::size_t size_ = 0;
    std::vector<bucket> buckets_;
    std::size_t mask_;
};

} // namespace lnuca
