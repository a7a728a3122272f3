// Printable content of a tag array for oracle tests: two arrays that print
// the same hold the same lines and decide every later LRU victim alike.
#pragma once

#include "src/mem/tag_array.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace lnuca {

/// Captures a tag array's LRU stamps through its serialize() hook (the one
/// vector<u64> it writes); lines are read through tag_array::line().
struct stamp_capture {
    static constexpr bool is_loading = false;
    std::vector<std::uint64_t> stamps;

    template <class T> void operator()(const std::vector<T>& v)
    {
        if constexpr (std::is_same_v<T, std::uint64_t>)
            stamps = v;
    }
    template <class T> void operator()(const T& v)
    {
        if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string>)
            const_cast<T&>(v).serialize(*this);
    }
};

/// Content of one tag array: per set, the valid ways from least to most
/// recently used, with their tag, dirty and exclusive bits. Raw LRU stamps
/// may differ between two arrays that went through different but
/// equivalent touches; the order they induce is what decides every later
/// victim. Policies without stamps (random, FIFO) list ways in way order.
inline std::string content_of(const mem::tag_array& tags)
{
    stamp_capture cap;
    cap(tags);
    std::ostringstream out;
    for (std::uint32_t set = 0; set < tags.sets(); ++set) {
        std::vector<std::uint32_t> ways;
        for (std::uint32_t way = 0; way < tags.ways(); ++way)
            if (tags.line(set, way).valid)
                ways.push_back(way);
        if (!cap.stamps.empty())
            std::sort(ways.begin(), ways.end(), [&](auto a, auto b) {
                return cap.stamps[std::size_t(set) * tags.ways() + a] <
                       cap.stamps[std::size_t(set) * tags.ways() + b];
            });
        if (ways.empty())
            continue;
        out << "set " << set << ':';
        for (const std::uint32_t way : ways) {
            const mem::cache_line& l = tags.line(set, way);
            out << " w" << way << "=" << std::hex << l.tag << std::dec
                << (l.dirty ? "d" : "") << (l.exclusive ? "x" : "");
        }
        out << '\n';
    }
    return out.str();
}

} // namespace lnuca
