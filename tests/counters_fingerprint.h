// Portable fingerprint of a counter set for pinned-value tests.
// counter_set::digest() hashes names with std::hash, which is only stable
// within one process, so a value recorded in a test file uses this FNV-1a
// fold of every (name, value) pair in insertion order instead.
#pragma once

#include "src/common/stats.h"

#include <cstdint>

namespace lnuca {

inline std::uint64_t counters_fingerprint(const counter_set& counters)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto byte = [&](std::uint64_t b) { h = (h ^ b) * 0x100000001b3ULL; };
    for (const auto& [name, value] : counters.items()) {
        for (const char c : name)
            byte(std::uint8_t(c));
        for (int b = 0; b < 8; ++b)
            byte((value >> (8 * b)) & 0xff);
    }
    return h;
}

} // namespace lnuca
