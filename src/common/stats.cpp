#include "src/common/stats.h"

#include <functional>

namespace lnuca {

double harmonic_mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double inv_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0; // harmonic mean undefined; treat as degenerate
        inv_sum += 1.0 / v;
    }
    return double(values.size()) / inv_sum;
}

double arithmetic_mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / double(values.size());
}

counter_set::handle counter_set::handle_of(std::string_view name)
{
    for (std::size_t i = 0; i < items_.size(); ++i)
        if (items_[i].first == name)
            return handle(i);
    items_.emplace_back(std::string(name), 0);
    return handle(items_.size() - 1);
}

std::uint64_t counter_set::get(std::string_view name) const
{
    for (const auto& [key, value] : items_)
        if (key == name)
            return value;
    return 0;
}

std::uint64_t counter_set::digest() const
{
    std::uint64_t sum = 0;
    for (const auto& [key, value] : items_)
        sum += (std::hash<std::string>{}(key) ^ (value * 0x9e3779b97f4a7c15ULL)) *
               0x2545f4914f6cdd1dULL;
    return sum;
}

void counter_set::reset()
{
    // Zero the values but keep the registered names: outstanding handles
    // survive a between-windows stats reset.
    for (auto& [key, value] : items_)
        value = 0;
}

} // namespace lnuca
