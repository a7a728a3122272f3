// Golden rows: pins the deterministic JSONL bytes of a small run grid across
// commits. Every other identity check in the suite (dense == idle-skip,
// serial == parallel, resumed == clean) compares two runs of one binary, so
// a refactor that shifts every run the same way passes them all; this test
// compares against hashes recorded from an earlier build instead.
//
// Each row is exp::encode_deterministic_line() (the JSON-lines bytes with
// the host-timing fields zeroed), hashed with 64-bit FNV-1a. The grid covers four presets x {1, 2} cores
// (2-core runs also on a shared-memory scenario) x {exact, sampled} x
// {checkpointing off, on}. Exact multi-core runs with checkpointing are not
// pinned: their chunk cursor follows the slowest lane's committed count,
// and kill+resume identity for them lives in ckpt_test.
//
// A deliberate change to simulated results must update the table. Running
// with LNUCA_GOLDEN_PRINT=1 prints the current hashes in table form.
#include "src/exp/job.h"
#include "src/exp/sink.h"
#include "src/hier/presets.h"
#include "src/trace/workload_spec.h"
#include "src/workloads/spec2006.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace lnuca {
namespace {

constexpr std::uint64_t exact_instructions = 8'000;
constexpr std::uint64_t exact_warmup = 1'000;
constexpr std::uint64_t exact_every = 3'000;
constexpr std::uint64_t sampled_instructions = 24'000;
constexpr std::uint64_t sampled_warmup = 2'000;
constexpr std::uint64_t sampled_every = 6'000;
constexpr const char* sampling_spec = "periodic:1000:6000:500";

// Recorded before the single-core and CMP run drivers were folded into one;
// the sampled rows of configs with an L-NUCA fabric were re-recorded when
// the fabric's warm path started following its replacement links.
const std::map<std::string, std::uint64_t> golden = {
    {"L2-256KB/429.mcf/exact/plain", 0xe535a705e5078e54ULL},
    {"L2-256KB/429.mcf/exact/ckpt", 0x71fd0ad3db025e10ULL},
    {"L2-256KB/429.mcf/sampled/plain", 0x23a1b562d7104ae2ULL},
    {"L2-256KB/429.mcf/sampled/ckpt", 0xd71070e363d13cc1ULL},
    {"L2-256KB-2c/429.mcf/exact/plain", 0x92424e926c59c207ULL},
    {"L2-256KB-2c/429.mcf/sampled/plain", 0x87341de3bdc406c2ULL},
    {"L2-256KB-2c/429.mcf/sampled/ckpt", 0x1edc012150750baaULL},
    {"L2-256KB-2c/scenario:producer_consumer/exact/plain", 0xca0f5af4ca97eef7ULL},
    {"L2-256KB-2c/scenario:producer_consumer/sampled/plain", 0xeb912f8b03819214ULL},
    {"L2-256KB-2c/scenario:producer_consumer/sampled/ckpt", 0x41e1879757ce4cf0ULL},
    {"LN3-144KB/429.mcf/exact/plain", 0xb68d9923ccb92da1ULL},
    {"LN3-144KB/429.mcf/exact/ckpt", 0xacbea34c3480b418ULL},
    {"LN3-144KB/429.mcf/sampled/plain", 0x7918f1d1bf1ecabaULL},
    {"LN3-144KB/429.mcf/sampled/ckpt", 0x6e41724514d1b4e4ULL},
    {"LN3-144KB-2c/429.mcf/exact/plain", 0x06f668fb93da9eafULL},
    {"LN3-144KB-2c/429.mcf/sampled/plain", 0x6c80378797cecb73ULL},
    {"LN3-144KB-2c/429.mcf/sampled/ckpt", 0xc4ee5b44548ea2e5ULL},
    {"LN3-144KB-2c/scenario:producer_consumer/exact/plain", 0x7768ad323537d668ULL},
    {"LN3-144KB-2c/scenario:producer_consumer/sampled/plain", 0xe9a30e7ac30423d6ULL},
    {"LN3-144KB-2c/scenario:producer_consumer/sampled/ckpt", 0x8a8d864eb3b8b8c2ULL},
    {"DN-4x8/429.mcf/exact/plain", 0x946ef2c7e332cc1aULL},
    {"DN-4x8/429.mcf/exact/ckpt", 0x104a2ac9972b01c2ULL},
    {"DN-4x8/429.mcf/sampled/plain", 0xa327fe27bda16254ULL},
    {"DN-4x8/429.mcf/sampled/ckpt", 0x3e64fdbad6082008ULL},
    {"DN-4x8-2c/429.mcf/exact/plain", 0x463cce2163d726d1ULL},
    {"DN-4x8-2c/429.mcf/sampled/plain", 0x56dcff6f9a0c6cacULL},
    {"DN-4x8-2c/429.mcf/sampled/ckpt", 0x18e3358dde7e3855ULL},
    {"DN-4x8-2c/scenario:producer_consumer/exact/plain", 0xcb1a12733fdac5b1ULL},
    {"DN-4x8-2c/scenario:producer_consumer/sampled/plain", 0x50aee720d6f38200ULL},
    {"DN-4x8-2c/scenario:producer_consumer/sampled/ckpt", 0xe3fa0e95ff5b83edULL},
    {"LN3 + DN-4x8/429.mcf/exact/plain", 0xf013501e6e512b59ULL},
    {"LN3 + DN-4x8/429.mcf/exact/ckpt", 0x8a31e57673a5833eULL},
    {"LN3 + DN-4x8/429.mcf/sampled/plain", 0x96dbceb35d16979eULL},
    {"LN3 + DN-4x8/429.mcf/sampled/ckpt", 0x1e6e1bccedd66d9aULL},
    {"LN3 + DN-4x8-2c/429.mcf/exact/plain", 0xd95cd8b76d20ccdaULL},
    {"LN3 + DN-4x8-2c/429.mcf/sampled/plain", 0x4dad6e7ccc9480a1ULL},
    {"LN3 + DN-4x8-2c/429.mcf/sampled/ckpt", 0xa258f2a3336fb364ULL},
    {"LN3 + DN-4x8-2c/scenario:producer_consumer/exact/plain", 0xe6b0a0049a97c89dULL},
    {"LN3 + DN-4x8-2c/scenario:producer_consumer/sampled/plain", 0x55f1368fda58917eULL},
    {"LN3 + DN-4x8-2c/scenario:producer_consumer/sampled/ckpt", 0x29c9c9992cf8e3eeULL},
};

std::uint64_t fnv1a(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= std::uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct golden_case {
    std::string label;
    exp::job job;
};

std::vector<golden_case> grid()
{
    const std::vector<hier::system_config> presets = {
        hier::presets::l2_256kb(), hier::presets::lnuca_l3(3),
        hier::presets::dnuca_4x8(), hier::presets::lnuca_dnuca(3)};
    const wl::workload_profile mcf = *wl::find_spec2006("429.mcf");
    const wl::workload_profile scenario =
        *trace::parse_workload_spec("scenario:producer_consumer");

    std::vector<golden_case> cases;
    for (const auto& preset : presets) {
        for (const unsigned cores : {1u, 2u}) {
            const hier::system_config base =
                cores == 1 ? preset : hier::presets::cmp(preset, cores);
            std::vector<wl::workload_profile> workloads = {mcf};
            if (cores > 1)
                workloads.push_back(scenario);
            for (const auto& workload : workloads) {
                for (const bool sampled : {false, true}) {
                    for (const bool checkpointed : {false, true}) {
                        if (cores > 1 && !sampled && checkpointed)
                            continue;
                        golden_case c;
                        c.label = base.name + "/" + workload.name + "/" +
                                  (sampled ? "sampled" : "exact") + "/" +
                                  (checkpointed ? "ckpt" : "plain");
                        exp::job& j = c.job;
                        j.config = base;
                        j.workload = workload;
                        j.seed = 5 + cases.size();
                        j.instructions =
                            sampled ? sampled_instructions : exact_instructions;
                        j.warmup = sampled ? sampled_warmup : exact_warmup;
                        if (sampled)
                            j.config.sampling =
                                *hier::parse_sampling_spec(sampling_spec);
                        if (checkpointed) {
                            j.config.checkpoint.path =
                                ::testing::TempDir() + "lnuca_golden_" +
                                std::to_string(cases.size()) + ".ckpt";
                            j.config.checkpoint.every =
                                sampled ? sampled_every : exact_every;
                            std::remove(j.config.checkpoint.path.c_str());
                        }
                        cases.push_back(std::move(c));
                    }
                }
            }
        }
    }
    return cases;
}

TEST(golden_rows, deterministic_jsonl_bytes_match_recorded_hashes)
{
    const bool print = std::getenv("LNUCA_GOLDEN_PRINT") != nullptr;
    const std::vector<golden_case> cases = grid();
    ASSERT_EQ(cases.size(), 40u);
    for (const golden_case& c : cases) {
        SCOPED_TRACE(c.label);
        const hier::run_result r = c.job.run();
        ASSERT_EQ(r.status, hier::run_status::ok);
        const std::string line = exp::encode_deterministic_line(c.job, r);
        const std::uint64_t hash = fnv1a(line);
        if (print)
            std::printf("    {\"%s\", 0x%016" PRIx64 "ULL},\n",
                        c.label.c_str(), hash);
        const auto expected = golden.find(c.label);
        if (expected == golden.end()) {
            ADD_FAILURE() << "no recorded hash";
            continue;
        }
        EXPECT_EQ(hash, expected->second)
            << "row bytes changed: " << line;
    }
}

} // namespace
} // namespace lnuca
