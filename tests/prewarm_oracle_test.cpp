// Pre-warm oracle. hier::system's constructor fills the L2, the L3 and the
// D-NUCA banks with every lane's hot window. The reference here does it
// the plain way - one install per 32-B generator block, walking each
// lane's window from its oldest block to its hottest, into fresh arrays of
// the same configuration - and every set of every array must match it on
// tags, dirty bits and LRU order (tests/tag_content.h).
#include "src/hier/presets.h"
#include "src/hier/system.h"
#include "src/trace/workload_spec.h"
#include "src/workloads/spec2006.h"
#include "tests/tag_content.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace lnuca {
namespace {

/// Generator block size the pre-warm windows are counted in.
constexpr std::uint64_t k_generator_block = 32;

/// Fails with the first line where two content dumps part (a whole 8 MB
/// dump would drown the report).
void expect_same_content(const std::string& got, const std::string& want,
                         const std::string& what)
{
    if (got == want)
        return;
    std::istringstream a(got), b(want);
    std::string la, lb;
    for (int line = 1;; ++line) {
        const bool more_a = bool(std::getline(a, la));
        const bool more_b = bool(std::getline(b, lb));
        if (!more_a && !more_b)
            break;
        if (!more_a || !more_b || la != lb) {
            ADD_FAILURE() << what << " differs at dump line " << line
                          << "\n  prewarmed: " << (more_a ? la : "<end>")
                          << "\n  reference: " << (more_b ? lb : "<end>");
            return;
        }
    }
}

/// Walks every lane's window of `window` generator blocks, oldest first,
/// as the reference fill order.
template <class Install>
void walk_windows(const hier::system& sys, std::uint64_t window,
                  Install install)
{
    for (unsigned lane = 0; lane < sys.cores(); ++lane) {
        const wl::workload_stream& stream = sys.stream(lane);
        if (stream.warm_block_count() == 0)
            continue;
        for (std::uint64_t j = window; j-- > 0;)
            install(stream.warm_block(j));
    }
}

void expect_cache_matches(hier::system& sys, mem::conventional_cache* cache,
                          const std::string& what)
{
    if (cache == nullptr)
        return;
    const mem::cache_config& c = cache->config();
    mem::tag_array reference(
        {c.size_bytes, c.ways, c.block_bytes, c.policy, c.seed});
    walk_windows(sys, reference.size_bytes() / k_generator_block / sys.cores(),
                 [&](addr_t block) { reference.install(block, false); });
    EXPECT_GT(reference.valid_count(), 0u) << what << ": empty window";
    expect_same_content(content_of(cache->tags()), content_of(reference),
                        what);
}

/// D-NUCA reference: the bank mapping written out with plain divides, one
/// fresh array per bank (seeded as dnuca_cache seeds its banks). It is
/// stated here on purpose, apart from dnuca_cache's column_of() and
/// to_bank_addr(), which both prewarm() and the timed search use: a change
/// to that mapping shows up here, and dnuca_test's
/// timed_search_finds_every_prewarmed_line checks the two paths agree.
void expect_dnuca_matches(hier::system& sys, const std::string& what)
{
    const dnuca::dnuca_cache* cache = sys.dnuca();
    if (cache == nullptr)
        return;
    const dnuca::dnuca_config& c = cache->config();
    std::vector<mem::tag_array> banks;
    for (unsigned row = 1; row <= c.rows; ++row)
        for (unsigned col = 0; col < c.bank_sets; ++col)
            banks.emplace_back(mem::tag_array_config{
                c.bank_bytes, c.bank_ways, c.block_bytes, c.policy,
                c.seed + row * 97 + col});
    const std::uint64_t sets_per_bank =
        c.bank_bytes / c.block_bytes / c.bank_ways;
    walk_windows(sys, cache->size_bytes() / k_generator_block / sys.cores(),
                 [&](addr_t addr) {
                     const addr_t block = addr & ~addr_t(c.block_bytes - 1);
                     const unsigned col =
                         unsigned((block / c.block_bytes) % c.bank_sets);
                     const addr_t local =
                         block / (addr_t(c.block_bytes) * c.bank_sets) *
                         c.block_bytes;
                     const std::uint64_t line =
                         block / c.block_bytes / c.bank_sets;
                     const unsigned row =
                         1 + unsigned(line / sets_per_bank % c.rows);
                     banks[(row - 1) * c.bank_sets + col].install(local,
                                                                  false);
                 });
    std::uint64_t valid = 0;
    for (unsigned row = 1; row <= c.rows; ++row)
        for (unsigned col = 0; col < c.bank_sets; ++col) {
            const mem::tag_array& reference =
                banks[(row - 1) * c.bank_sets + col];
            valid += reference.valid_count();
            expect_same_content(content_of(cache->bank_tags(col, row)),
                                content_of(reference),
                                what + " bank " + std::to_string(col) + "," +
                                    std::to_string(row));
        }
    EXPECT_GT(valid, 0u) << what << ": empty window";
}

void expect_prewarm_matches(const hier::system_config& config,
                            const wl::workload_profile& workload,
                            std::uint64_t seed)
{
    hier::system sys(config, std::vector<wl::workload_profile>{workload},
                     seed);
    const std::string what = config.name + " / " + workload.name;
    expect_cache_matches(sys, sys.l2(), what + " L2");
    expect_cache_matches(sys, sys.l3(), what + " L3");
    expect_dnuca_matches(sys, what + " D-NUCA");
}

wl::workload_profile spec(const char* name)
{
    const auto profile = wl::find_spec2006(name);
    EXPECT_TRUE(profile.has_value()) << name;
    return *profile;
}

TEST(prewarm_oracle, l2_256kb)
{
    expect_prewarm_matches(hier::presets::l2_256kb(), spec("429.mcf"), 3);
}

TEST(prewarm_oracle, ln3_144kb)
{
    expect_prewarm_matches(hier::presets::lnuca_l3(3), spec("429.mcf"), 5);
}

TEST(prewarm_oracle, dn_4x8)
{
    expect_prewarm_matches(hier::presets::dnuca_4x8(), spec("429.mcf"), 7);
}

TEST(prewarm_oracle, ln3_144kb_two_cores)
{
    expect_prewarm_matches(hier::presets::cmp(hier::presets::lnuca_l3(3), 2),
                           spec("456.hmmer"), 9);
}

TEST(prewarm_oracle, wrapping_window)
{
    // 400.perlbench's footprint (2^17 blocks) is half the 8 MB window
    // (2^18 blocks), so each walk wraps and meets every line twice, the
    // repeats far apart.
    const wl::workload_profile perl = spec("400.perlbench");
    ASSERT_LT(perl.footprint_blocks, 8_MiB / k_generator_block);
    expect_prewarm_matches(hier::presets::l2_256kb(), perl, 11);
    expect_prewarm_matches(hier::presets::dnuca_4x8(), perl, 11);

    // Footprints that do not divide the windows: the last partial lap
    // re-touches only part of the footprint, so skipping a non-consecutive
    // repeat would change the LRU order. 3001 blocks wrap the L2's
    // 8192-block window, 100003 the 8 MB ones.
    for (const std::uint64_t footprint : {3001ull, 100003ull}) {
        wl::workload_profile odd = perl;
        odd.footprint_blocks = footprint;
        odd.name = "perlbench-" + std::to_string(footprint);
        expect_prewarm_matches(hier::presets::l2_256kb(), odd, 17);
        expect_prewarm_matches(hier::presets::dnuca_4x8(), odd, 17);
    }
}

TEST(prewarm_oracle, trace_lane_replays_captured_warm_table)
{
    const std::string path =
        ::testing::TempDir() + "lnuca_prewarm_oracle.trace";
    hier::system_config capture = hier::presets::lnuca_l3(3);
    capture.capture_path = path;
    hier::run_one(capture, spec("400.perlbench"), 2'000, 500, 13);

    const auto replay = trace::parse_workload_spec("trace:" + path);
    ASSERT_TRUE(replay.has_value());
    expect_prewarm_matches(hier::presets::l2_256kb(), *replay, 13);
    expect_prewarm_matches(hier::presets::dnuca_4x8(), *replay, 13);
    std::remove(path.c_str());
}

} // namespace
} // namespace lnuca
