// Set-associative tag array: the functional core of every cache in the
// simulator (L1, L2, L3, L-NUCA tiles, D-NUCA banks).
#pragma once

#include "src/common/types.h"
#include "src/mem/replacement.h"

#include <optional>
#include <vector>

namespace lnuca::mem {

struct cache_line {
    addr_t tag = no_addr; ///< block-aligned address (full address, not shifted)
    bool valid = false;
    bool dirty = false;
    /// MESI write permission (coherent private caches): E or M. A dirty
    /// line is always exclusive. Non-coherent caches never read it.
    bool exclusive = false;

    template <class Ar> void serialize(Ar& ar)
    {
        ar(tag);
        ar(valid);
        ar(dirty);
        ar(exclusive);
    }
};

struct tag_array_config {
    std::uint64_t size_bytes = 32_KiB;
    std::uint32_t ways = 4;
    std::uint32_t block_bytes = 32;
    std::string policy = "lru";
    std::uint64_t seed = 0x5eed;
};

/// Result of a lookup that hit.
struct hit_info {
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    bool was_dirty = false;
};

/// A line displaced by an install.
struct evicted_line {
    addr_t block_addr = no_addr;
    bool dirty = false;
};

class tag_array {
public:
    explicit tag_array(const tag_array_config& config);

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t block_bytes() const { return block_bytes_; }
    std::uint64_t size_bytes() const
    {
        return std::uint64_t(sets_) * ways_ * block_bytes_;
    }

    /// Block-align an address to this array's block size.
    addr_t block_of(addr_t addr) const { return addr & ~addr_t(block_bytes_ - 1); }

    std::uint32_t set_of(addr_t addr) const
    {
        return std::uint32_t((addr >> block_shift_) & (sets_ - 1));
    }

    /// Probe without changing recency state.
    std::optional<hit_info> probe(addr_t addr) const;

    /// Probe and, on hit, update recency.
    std::optional<hit_info> lookup(addr_t addr);

    /// Mark an existing line dirty (store hit on a copy-back cache).
    void set_dirty(addr_t addr, bool dirty);

    /// MESI permission bit of an existing line (coherent caches only).
    void set_exclusive(addr_t addr, bool exclusive);
    bool is_exclusive(addr_t addr) const;

    /// Install the block containing `addr`. If the set is full, the policy's
    /// victim is displaced and returned. Installing a block that is already
    /// present refreshes its recency instead of duplicating it.
    std::optional<evicted_line> install(addr_t addr, bool dirty);

    /// True iff the set containing `addr` has a free (invalid) way.
    bool set_has_free_way(addr_t addr) const;

    enum class room_result { present, installed, full };
    /// One scan of the set: a present block is reported and left as it is
    /// (recency untouched); otherwise the block is installed clean in the
    /// first free way, as install() would; a full set is left unchanged.
    /// Pre-warm placement, which never displaces a line.
    room_result install_if_room(addr_t addr);

    /// Remove the block containing `addr` if present; returns the line so
    /// callers can propagate dirtiness (exclusion migrations, invalidations).
    std::optional<evicted_line> extract(addr_t addr);

    /// Evict the replacement-policy victim of the set containing `addr`
    /// without installing anything (the L-NUCA domino reads the victim one
    /// cycle before writing the incoming block). Requires a full set.
    evicted_line evict_victim(addr_t addr);

    /// Read a line by geometry position (introspection for tests/examples).
    const cache_line& line(std::uint32_t set, std::uint32_t way) const
    {
        return lines_[std::size_t(set) * ways_ + way];
    }

    /// Number of valid lines (occupancy metrics).
    std::uint64_t valid_count() const;

    /// Checkpoint support: lines + recency state. Geometry is config.
    template <class Ar> void serialize(Ar& ar)
    {
        ar(lines_);
        ar(policy_);
    }

private:
    cache_line& line_ref(std::uint32_t set, std::uint32_t way)
    {
        return lines_[std::size_t(set) * ways_ + way];
    }

    /// One pass over a set's ways: the way holding `block` (ways_ if
    /// absent). Until it returns a hit, `free_way` tracks the first
    /// invalid way (ways_ if none).
    std::uint32_t scan(const cache_line* row, addr_t block,
                       std::uint32_t& free_way) const
    {
        free_way = ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!row[w].valid) {
                if (free_way == ways_)
                    free_way = w;
            } else if (row[w].tag == block) {
                return w;
            }
        }
        return ways_;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t block_bytes_;
    unsigned block_shift_; ///< log2(block_bytes_): set_of without a divide
    std::vector<cache_line> lines_;
    replacement_policy policy_; ///< value type: LRU touch/victim inline here
};

} // namespace lnuca::mem
