// Statistics primitives used across the simulator: harmonic/arithmetic
// means (the paper aggregates IPC with harmonic means), ratios and the named
// counter bundle every component reports through. All are plain value
// types; registration/reporting is the caller's concern.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lnuca {

/// Harmonic mean of a set of samples (IPC aggregation in the paper).
double harmonic_mean(const std::vector<double>& values);

/// Arithmetic mean convenience.
double arithmetic_mean(const std::vector<double>& values);

/// Ratio with a defined value when the denominator is zero.
constexpr double safe_ratio(double num, double den, double if_zero = 0.0)
{
    return den == 0.0 ? if_zero : num / den;
}

/// Named counter bundle: insertion-ordered, printable. Components expose one
/// of these so tests and benches can introspect behaviour without bespoke
/// accessor plumbing per statistic.
///
/// A component declares each counter once, as a handle member initialised
/// in-class from handle_of("name") right after its counter_set; the
/// declaration order is the items() order. Increments go through the
/// handle (one indexed add). Lookups by name are linear scans over a few
/// dozen names and run only cold: construction, harvest, restore, tests.
class counter_set {
public:
    /// Stable reference to a counter: an index into items(). Handles stay
    /// valid for the counter_set's lifetime (reset() zeroes values but
    /// keeps the registered names precisely so handles survive it).
    using handle = std::uint32_t;

    void inc(handle h, std::uint64_t by = 1) { items_[h].second += by; }

    /// Find-or-create a counter (at zero) and return its stable handle.
    handle handle_of(std::string_view name);

    /// Read a counter; absent counters read as zero.
    std::uint64_t get(std::string_view name) const;
    std::uint64_t value(handle h) const { return items_[h].second; }

    /// Overwrite a counter's value (creating it if absent). Checkpoint
    /// restore rebuilds counters by name through this, so a save/load
    /// round-trip is insensitive to registration order drift.
    void set(std::string_view name, std::uint64_t value)
    {
        items_[handle_of(name)].second = value;
    }

    /// All counters in insertion order.
    const std::vector<std::pair<std::string, std::uint64_t>>& items() const
    {
        return items_;
    }

    /// Order-independent hash of (name, value) pairs. Stable only within
    /// one process: used for cheap state digests (sim::ticked), never
    /// persisted.
    std::uint64_t digest() const;

    void reset();

private:
    std::vector<std::pair<std::string, std::uint64_t>> items_;
};

} // namespace lnuca
