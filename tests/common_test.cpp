// Unit tests for the common foundation: rng, the slot index, the index
// mask, statistics, histogram, tables, CLI parsing, and the type helpers.
#include "src/common/cli.h"
#include "src/common/histogram.h"
#include "src/common/index_mask.h"
#include "src/common/rng.h"
#include "src/common/slot_index.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

namespace lnuca {
namespace {

TEST(types, pow2_helpers)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(1024));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_EQ(log2_exact(1), 0u);
    EXPECT_EQ(log2_exact(4096), 12u);
    EXPECT_EQ(align_up(5, 8), 8u);
    EXPECT_EQ(align_up(16, 8), 16u);
}

TEST(types, size_literals_and_format)
{
    EXPECT_EQ(32_KiB, 32768u);
    EXPECT_EQ(8_MiB, 8388608u);
    EXPECT_EQ(format_size(256_KiB), "256KB");
    EXPECT_EQ(format_size(8_MiB), "8MB");
    EXPECT_EQ(format_size(72_KiB), "72KB");
    EXPECT_EQ(format_size(100), "100B");
}

TEST(rng, deterministic_per_seed)
{
    rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a();
        EXPECT_EQ(va, b());
        (void)c;
    }
    rng d(43);
    EXPECT_NE(rng(42)(), d());
}

TEST(rng, below_respects_bound)
{
    rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
    EXPECT_EQ(r.below(1), 0u);
}

TEST(rng, uniform_in_unit_interval_and_mean)
{
    rng r(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(rng, chance_matches_probability)
{
    rng r(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(rng, between_is_inclusive)
{
    rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.between(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(rng, hash64_stateless)
{
    EXPECT_EQ(hash64(1), hash64(1));
    EXPECT_NE(hash64(1), hash64(2));
}

TEST(slot_index, matches_unordered_map_on_a_wrapping_table)
{
    // Capacity 4 means 8 buckets, so probe clusters regularly wrap past the
    // last bucket. Seeded inserts, overwrites, erases and finds run against
    // std::unordered_map; every step checks every key of the universe.
    slot_index index(4);
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    rng r(19);
    constexpr std::uint64_t universe = 12;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = r.below(universe) * 0x40; // block addresses
        const std::uint32_t value = std::uint32_t(r.below(1000));
        switch (r.below(3)) {
        case 0: // insert, or overwrite a present key
            if (model.size() < index.capacity() || model.count(key) != 0) {
                index.insert(key, value);
                model[key] = value;
            }
            break;
        case 1:
            ASSERT_EQ(index.erase(key), model.erase(key) == 1) << step;
            break;
        default: // find-only step
            break;
        }
        ASSERT_EQ(index.size(), model.size()) << step;
        for (std::uint64_t k = 0; k < universe; ++k) {
            const auto it = model.find(k * 0x40);
            ASSERT_EQ(index.find(k * 0x40),
                      it == model.end() ? slot_index::npos : it->second)
                << "step " << step << " key " << k;
        }
    }
}

TEST(slot_index, erase_inside_a_wrapped_cluster_shifts_the_tail_back)
{
    // a, b, d hash to the last of 8 buckets and c to bucket 0, so inserting
    // a, b, c, d fills buckets 7, 0, 1, 2. Erasing b (bucket 0, mid-cluster)
    // must pull c and d back one bucket each, keeping both reachable.
    std::vector<std::uint64_t> last_home, first_home;
    for (std::uint64_t k = 0; last_home.size() < 3 || first_home.empty(); ++k) {
        if ((hash64(k) & 7) == 7 && last_home.size() < 3)
            last_home.push_back(k);
        else if ((hash64(k) & 7) == 0 && first_home.empty())
            first_home.push_back(k);
    }
    const std::uint64_t a = last_home[0], b = last_home[1], c = first_home[0],
                        d = last_home[2];
    slot_index index(4);
    index.insert(a, 10);
    index.insert(b, 11);
    index.insert(c, 12);
    index.insert(d, 13);
    EXPECT_THROW(index.insert(d + 0x1000, 14), std::logic_error); // full
    index.insert(c, 22); // overwrite needs no free capacity
    EXPECT_EQ(index.size(), 4u);

    EXPECT_TRUE(index.erase(b));
    EXPECT_FALSE(index.erase(b));
    EXPECT_EQ(index.size(), 3u);
    EXPECT_EQ(index.find(a), 10u);
    EXPECT_EQ(index.find(b), slot_index::npos);
    EXPECT_EQ(index.find(c), 22u);
    EXPECT_EQ(index.find(d), 13u);

    index.clear();
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.find(a), slot_index::npos);
}

/// Seeded index_mask contents with both ends and every word boundary set,
/// plus the model set as a sorted vector.
std::pair<index_mask, std::vector<std::size_t>> seeded_mask(std::size_t size)
{
    index_mask mask(size);
    std::vector<std::size_t> set;
    rng r(size);
    for (std::size_t i = 0; i < size; ++i) {
        const bool edge = i == 0 || i + 1 == size || i % 64 == 0 || i % 64 == 63;
        if (edge || r.chance(0.4)) {
            mask.set(i);
            set.push_back(i);
        }
    }
    return {mask, set};
}

/// The model's indices in circular order from `start`.
std::vector<std::size_t> circular_from(const std::vector<std::size_t>& set,
                                       std::size_t start)
{
    std::vector<std::size_t> order;
    for (const std::size_t i : set)
        if (i >= start)
            order.push_back(i);
    for (const std::size_t i : set)
        if (i < start)
            order.push_back(i);
    return order;
}

constexpr std::array<std::size_t, 6> mask_sizes = {1, 63, 64, 65, 128, 130};

TEST(index_mask, for_each_visits_set_indices_ascending)
{
    for (const std::size_t size : mask_sizes) {
        auto [mask, set] = seeded_mask(size);
        std::vector<std::size_t> seen;
        mask.for_each([&](std::size_t i) { seen.push_back(i); });
        EXPECT_EQ(seen, set) << "size " << size;
        EXPECT_TRUE(mask.any());

        // Clearing the visited index inside fn leaves the walk unchanged
        // and the mask empty.
        seen.clear();
        mask.for_each([&](std::size_t i) {
            seen.push_back(i);
            mask.clear(i);
        });
        EXPECT_EQ(seen, set) << "size " << size;
        EXPECT_FALSE(mask.any()) << "size " << size;
        for (std::size_t i = 0; i < size; ++i)
            EXPECT_FALSE(mask.test(i));
    }
}

TEST(index_mask, for_each_from_wraps_stops_and_tolerates_clears)
{
    for (const std::size_t size : mask_sizes) {
        // Start at 0, mid-word, and at the last index.
        const std::array<std::size_t, 3> starts = {
            0, std::min(size - 1, size / 2 + 5), size - 1};
        for (const std::size_t start : starts) {
            auto [mask, set] = seeded_mask(size);
            const std::vector<std::size_t> expected = circular_from(set, start);
            const auto where = [&] {
                return "size " + std::to_string(size) + " start " +
                       std::to_string(start);
            };

            std::vector<std::size_t> seen;
            mask.for_each_from(start, [&](std::size_t i) {
                seen.push_back(i);
                return true;
            });
            EXPECT_EQ(seen, expected) << where();

            // Early stop: fn returning false ends the walk at once.
            for (std::size_t stop = 1; stop <= expected.size(); ++stop) {
                seen.clear();
                mask.for_each_from(start, [&](std::size_t i) {
                    seen.push_back(i);
                    return seen.size() < stop;
                });
                EXPECT_EQ(seen, std::vector<std::size_t>(
                                    expected.begin(),
                                    expected.begin() + std::ptrdiff_t(stop)))
                    << where() << " stop " << stop;
            }

            // Clearing already-visited indices (the start word included)
            // never revisits or skips one.
            seen.clear();
            mask.for_each_from(start, [&](std::size_t i) {
                seen.push_back(i);
                mask.clear(i);
                return true;
            });
            EXPECT_EQ(seen, expected) << where();
            EXPECT_FALSE(mask.any()) << where();
        }
    }
}

TEST(stats, harmonic_mean_known_values)
{
    const std::vector<double> v{1.0, 2.0};
    EXPECT_NEAR(harmonic_mean(v), 4.0 / 3.0, 1e-12);
    const std::vector<double> w{2.0, 2.0, 2.0};
    EXPECT_NEAR(harmonic_mean(w), 2.0, 1e-12);
}

TEST(stats, harmonic_mean_degenerate)
{
    EXPECT_EQ(harmonic_mean({}), 0.0);
    const std::vector<double> z{0.0, 2.0};
    EXPECT_EQ(harmonic_mean(z), 0.0);
}

TEST(stats, harmonic_below_arithmetic)
{
    const std::vector<double> v{0.5, 1.0, 1.5, 3.0};
    EXPECT_LT(harmonic_mean(v), arithmetic_mean(v));
}

TEST(stats, safe_ratio)
{
    EXPECT_EQ(safe_ratio(4, 2), 2.0);
    EXPECT_EQ(safe_ratio(4, 0), 0.0);
    EXPECT_EQ(safe_ratio(4, 0, 1.5), 1.5);
}

TEST(stats, counter_set_insertion_order_and_get)
{
    counter_set c;
    const counter_set::handle hb = c.handle_of("b");
    const counter_set::handle ha = c.handle_of("a");
    // Registration order is items() order (and checkpoint order).
    ASSERT_EQ(c.items().size(), 2u);
    EXPECT_EQ(c.items()[0].first, "b");
    EXPECT_EQ(c.items()[1].first, "a");
    // A second lookup of a registered name is the same counter.
    EXPECT_EQ(c.handle_of("b"), hb);
    EXPECT_EQ(c.items().size(), 2u);
    c.inc(hb);
    c.inc(ha, 3);
    c.inc(hb, 2);
    EXPECT_EQ(c.get("b"), 3u);
    EXPECT_EQ(c.get("a"), 3u);
    EXPECT_EQ(c.get("missing"), 0u);
    EXPECT_EQ(c.items().size(), 2u); // get() never creates
    // set() on an absent name creates it: checkpoint restore's path.
    c.set("c", 7);
    ASSERT_EQ(c.items().size(), 3u);
    EXPECT_EQ(c.items()[2].first, "c");
    EXPECT_EQ(c.get("c"), 7u);
    c.set("a", 4);
    EXPECT_EQ(c.get("a"), 4u);
    // reset() zeroes values but keeps names, so handles stay valid.
    c.reset();
    ASSERT_EQ(c.items().size(), 3u);
    EXPECT_EQ(c.get("b"), 0u);
    EXPECT_EQ(c.get("a"), 0u);
    EXPECT_EQ(c.get("c"), 0u);
    EXPECT_EQ(c.handle_of("b"), hb);
    c.inc(hb, 5);
    EXPECT_EQ(c.get("b"), 5u);
    EXPECT_EQ(c.get("a"), 0u);
}

TEST(histogram, counts_and_overflow)
{
    histogram h(4);
    h.add(0);
    h.add(3);
    h.add(10); // overflow bucket
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(histogram, weighted_mean)
{
    histogram h(16);
    h.add(2, 3); // three observations of 2
    h.add(8, 1);
    EXPECT_NEAR(h.mean(), (2 * 3 + 8) / 4.0, 1e-12);
}

TEST(histogram, percentile)
{
    histogram h(32);
    for (std::uint64_t v = 0; v < 10; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 4u);
    EXPECT_EQ(h.percentile(1.0), 9u);
}

TEST(histogram, reset)
{
    histogram h(8);
    h.add(1);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(1), 0u);
}

TEST(table, renders_header_and_rows)
{
    text_table t("Title");
    t.set_header({"a", "bb"});
    t.add_row({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_NE(out.find('1'), std::string::npos);
}

TEST(table, numeric_formatting)
{
    EXPECT_EQ(text_table::num(1.23456, 2), "1.23");
    EXPECT_EQ(text_table::num(2.0, 0), "2");
    EXPECT_EQ(text_table::pct(12.34, 1), "12.3%");
}

TEST(table, ragged_rows_padded)
{
    text_table t;
    t.set_header({"x", "y", "z"});
    t.add_row({"only-one"});
    EXPECT_NO_THROW({ const auto s = t.render(); (void)s; });
}

TEST(cli, parses_separate_and_equals_forms)
{
    const char* argv[] = {"prog", "--alpha", "5", "--beta=7", "--flag"};
    cli_args args(5, argv);
    EXPECT_EQ(args.get_u64("alpha", 0), 5u);
    EXPECT_EQ(args.get_u64("beta", 0), 7u);
    EXPECT_TRUE(args.has_flag("flag"));
    EXPECT_FALSE(args.has_flag("gamma"));
    EXPECT_EQ(args.get_u64("gamma", 9), 9u);
}

TEST(cli, string_and_double)
{
    const char* argv[] = {"prog", "--name", "mcf", "--ratio", "1.5"};
    cli_args args(5, argv);
    EXPECT_EQ(args.get_string("name", "x"), "mcf");
    EXPECT_DOUBLE_EQ(args.get_double("ratio", 0), 1.5);
    EXPECT_EQ(args.get_string("other", "fallback"), "fallback");
}

TEST(cli, only_known_accepts_the_binarys_own_flags)
{
    const char* argv[] = {"prog", "--hot", "8", "--accesses=100"};
    const cli_args args(4, argv);
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(args.only_known("prog", {"hot", "accesses"}));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    const cli_args none(1, argv);
    EXPECT_TRUE(none.only_known("prog", {}));
}

TEST(cli, only_known_names_the_first_unknown_option)
{
    const char* argv[] = {"prog", "--hot", "8", "--acceses", "10", "--help"};
    const cli_args args(6, argv);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(args.only_known("prog", {"hot", "accesses"}));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "prog: unknown option --acceses (flags: --hot --accesses)\n");

    const char* help[] = {"prog", "--help"};
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(cli_args(2, help).only_known("prog", {}));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "prog: unknown option --help (flags: none)\n");
}

} // namespace
} // namespace lnuca
