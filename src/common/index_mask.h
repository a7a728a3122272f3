// Set of small integer indices stored as 64-bit words: the worklists that
// let the D-NUCA mesh and banks, the L-NUCA fabric's tiles and the core's
// scheduler visit only what holds work each cycle.
//
// Sized once at construction; set/clear/test never allocate. Iteration is
// in ascending index order, which keeps a worklist walk in the same order
// as the full scan it replaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lnuca {

/// Index of the lowest set bit; `bits` must be non-zero.
inline std::size_t lowest_bit(std::uint64_t bits)
{
    return std::size_t(__builtin_ctzll(bits));
}

class index_mask {
public:
    explicit index_mask(std::size_t size = 0) : words_((size + 63) / 64, 0) {}

    void set(std::size_t i) { words_[i / 64] |= bit(i); }
    void clear(std::size_t i) { words_[i / 64] &= ~bit(i); }
    bool test(std::size_t i) const { return (words_[i / 64] & bit(i)) != 0; }

    bool any() const
    {
        for (const std::uint64_t w : words_)
            if (w != 0)
                return true;
        return false;
    }

    /// Call `fn(i)` for each set index, ascending. Each word is read once,
    /// when the walk reaches it, so `fn` may set or clear indices: a change
    /// to the word being walked or an earlier one does not affect this
    /// walk; later words are read as they stand.
    template <class Fn> void for_each(Fn fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
                fn(w * 64 + lowest_bit(bits));
    }

    /// Call `fn(i)` for each set index in circular order from `start`
    /// (`start`, `start` + 1, ..., the last index, then 0 .. `start` - 1)
    /// until `fn` returns false; `start` must be below the size. Words are
    /// read as for_each reads them, once each when the walk reaches them,
    /// except the word holding `start`: its indices below `start` are read
    /// again after the wrap.
    template <class Fn> void for_each_from(std::size_t start, Fn fn) const
    {
        const std::size_t first = start / 64;
        const std::uint64_t below = (std::uint64_t(1) << (start % 64)) - 1;
        auto walk = [&](std::size_t w, std::uint64_t bits) {
            for (; bits != 0; bits &= bits - 1)
                if (!fn(w * 64 + lowest_bit(bits)))
                    return false;
            return true;
        };
        if (!walk(first, words_[first] & ~below))
            return;
        for (std::size_t w = first + 1; w < words_.size(); ++w)
            if (!walk(w, words_[w]))
                return;
        for (std::size_t w = 0; w < first; ++w)
            if (!walk(w, words_[w]))
                return;
        walk(first, words_[first] & below);
    }

private:
    static std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t(1) << (i % 64);
    }

    std::vector<std::uint64_t> words_;
};

} // namespace lnuca
