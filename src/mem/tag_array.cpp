#include "src/mem/tag_array.h"

#include <stdexcept>

namespace lnuca::mem {

tag_array::tag_array(const tag_array_config& config)
    : ways_(config.ways),
      block_bytes_(config.block_bytes),
      block_shift_(log2_exact(config.block_bytes)),
      policy_(make_replacement_policy(config.policy, config.seed))
{
    if (!is_pow2(config.block_bytes))
        throw std::invalid_argument("block size must be a power of two");
    const std::uint64_t lines = config.size_bytes / config.block_bytes;
    if (lines == 0 || lines % config.ways != 0)
        throw std::invalid_argument("size/ways/block geometry does not divide");
    sets_ = std::uint32_t(lines / config.ways);
    if (!is_pow2(sets_))
        throw std::invalid_argument("set count must be a power of two");
    lines_.assign(std::size_t(sets_) * ways_, cache_line{});
    policy_.resize(sets_, ways_);
}

std::optional<hit_info> tag_array::probe(addr_t addr) const
{
    const addr_t block = block_of(addr);
    const std::uint32_t set = set_of(addr);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const cache_line& l = line(set, w);
        if (l.valid && l.tag == block)
            return hit_info{set, w, l.dirty};
    }
    return std::nullopt;
}

std::optional<hit_info> tag_array::lookup(addr_t addr)
{
    auto hit = probe(addr);
    if (hit)
        policy_.touch(hit->set, hit->way);
    return hit;
}

void tag_array::set_dirty(addr_t addr, bool dirty)
{
    auto hit = probe(addr);
    if (!hit)
        return;
    line_ref(hit->set, hit->way).dirty = dirty;
}

void tag_array::set_exclusive(addr_t addr, bool exclusive)
{
    auto hit = probe(addr);
    if (!hit)
        return;
    line_ref(hit->set, hit->way).exclusive = exclusive;
}

bool tag_array::is_exclusive(addr_t addr) const
{
    const auto hit = probe(addr);
    return hit && line(hit->set, hit->way).exclusive;
}

std::optional<evicted_line> tag_array::install(addr_t addr, bool dirty)
{
    const addr_t block = block_of(addr);
    const std::uint32_t set = set_of(addr);

    // One scan: a present copy wins over any free way (refresh recency,
    // merge dirtiness); otherwise fill the first free way.
    cache_line* const row = &line_ref(set, 0);
    std::uint32_t free_way;
    const std::uint32_t hit = scan(row, block, free_way);
    if (hit != ways_) {
        row[hit].dirty = row[hit].dirty || dirty;
        policy_.touch(set, hit);
        return std::nullopt;
    }

    if (free_way != ways_) {
        row[free_way] = cache_line{block, true, dirty};
        policy_.touch(set, free_way);
        return std::nullopt;
    }

    // Displace the policy victim.
    const std::uint32_t victim_way = policy_.victim(set);
    cache_line& l = row[victim_way];
    const evicted_line displaced{l.tag, l.dirty};
    l = cache_line{block, true, dirty};
    policy_.touch(set, victim_way);
    return displaced;
}

bool tag_array::set_has_free_way(addr_t addr) const
{
    const std::uint32_t set = set_of(addr);
    for (std::uint32_t w = 0; w < ways_; ++w)
        if (!line(set, w).valid)
            return true;
    return false;
}

tag_array::room_result tag_array::install_if_room(addr_t addr)
{
    const addr_t block = block_of(addr);
    const std::uint32_t set = set_of(addr);
    cache_line* const row = &line_ref(set, 0);
    std::uint32_t free_way;
    if (scan(row, block, free_way) != ways_)
        return room_result::present;
    if (free_way == ways_)
        return room_result::full;
    row[free_way] = cache_line{block, true, false};
    policy_.touch(set, free_way);
    return room_result::installed;
}

std::optional<evicted_line> tag_array::extract(addr_t addr)
{
    const addr_t block = block_of(addr);
    const std::uint32_t set = set_of(addr);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        cache_line& l = line_ref(set, w);
        if (l.valid && l.tag == block) {
            const evicted_line out{l.tag, l.dirty};
            l = cache_line{};
            return out;
        }
    }
    return std::nullopt;
}

evicted_line tag_array::evict_victim(addr_t addr)
{
    const std::uint32_t set = set_of(addr);
    const std::uint32_t way = policy_.victim(set);
    cache_line& l = line_ref(set, way);
    const evicted_line out{l.tag, l.dirty};
    l = cache_line{};
    return out;
}

std::uint64_t tag_array::valid_count() const
{
    std::uint64_t n = 0;
    for (const auto& l : lines_)
        n += l.valid ? 1 : 0;
    return n;
}

} // namespace lnuca::mem
