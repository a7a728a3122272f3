// Sweep manifests (src/exp/manifest.h) and the shard merge library
// (src/exp/merge.h): schema validation, deterministic axis expansion,
// canonical-content hashing, shard/unsharded equivalence, and every
// merge_tool edge case driven in-process.
#include "src/exp/manifest.h"
#include "src/exp/merge.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace lnuca;
using namespace lnuca::exp;

namespace {

// A small but fully-populated manifest every test can start from.
const char* k_manifest = R"({
  "schema": "lnuca_sweep/1",
  "name": "unit",
  "presets": ["L2-256KB", "ln3"],
  "cores": [1, 2],
  "workloads": ["429.mcf", "scenario:ping_pong"],
  "replicates": 2,
  "base_seed": 7,
  "instructions": 1000,
  "warmup": 200
})";

manifest parse_or_die(const std::string& text)
{
    std::string error;
    const auto m = parse_manifest(text, &error);
    EXPECT_TRUE(m.has_value()) << error;
    return *m;
}

std::string parse_error(const std::string& text)
{
    std::string error;
    EXPECT_FALSE(parse_manifest(text, &error).has_value());
    return error;
}

// --------------------------------------------------------------------------
// Schema validation.
// --------------------------------------------------------------------------

TEST(manifest, rejects_unknown_schema_and_missing_schema)
{
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/2",
                              "presets": ["l2"], "workloads": ["429.mcf"]})")
                  .find("unsupported manifest schema"),
              std::string::npos);
    EXPECT_NE(parse_error(R"({"presets": ["l2"], "workloads": ["429.mcf"]})")
                  .find("schema"),
              std::string::npos);
}

TEST(manifest, rejects_unknown_and_duplicate_keys)
{
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/1", "presets": ["l2"],
                              "workloads": ["429.mcf"], "wormloads": ["x"]})")
                  .find("unknown manifest key 'wormloads'"),
              std::string::npos);
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/1", "presets": ["l2"],
                              "presets": ["l2"], "workloads": ["429.mcf"]})")
                  .find("duplicate manifest key 'presets'"),
              std::string::npos);
}

TEST(manifest, rejects_bad_axis_values)
{
    // Unknown preset, unknown workload spec, unknown override key, cores
    // out of range, fractional scalar, malformed JSON: all named errors.
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/1", "presets": ["l5"],
                              "workloads": ["429.mcf"]})")
                  .find("unknown preset 'l5'"),
              std::string::npos);
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/1", "presets": ["l2"],
                              "workloads": ["430.nope"]})")
                  .find("unknown workload spec"),
              std::string::npos);
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/1", "presets": ["l2"],
                              "workloads": ["429.mcf"],
                              "overrides": [{"l2.size_mb": 1}]})")
                  .find("unknown system_config override key 'l2.size_mb'"),
              std::string::npos);
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/1", "presets": ["l2"],
                              "workloads": ["429.mcf"], "cores": [0]})")
                  .find("cores"),
              std::string::npos);
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/1", "presets": ["l2"],
                              "workloads": ["429.mcf"],
                              "instructions": 1.5})")
                  .find("instructions"),
              std::string::npos);
    EXPECT_NE(parse_error(R"({"schema": "lnuca_sweep/1" "presets")")
                  .find("JSON error"),
              std::string::npos);
}

TEST(manifest, rejects_zero_where_zero_breaks_the_run)
{
    // Measured with fig4a --manifest (3000 + 500 instructions): a zero for
    // each `breaks` key crashes the process, throws inside the job, or
    // stalls it to the cycle ceiling. The `keeps` keys run normally at 0.
    const std::vector<std::string> breaks = {
        "l1.ways", "l1.write_buffer_entries", "l1.ports", "l1.block_bytes",
        "l1.mshr_entries", "l2.size_kb", "l3.ways", "core.rob_size",
        "core.fetch_width", "core.tlb_entries", "fabric.levels",
        "fabric.inject_queue_depth", "fabric.evict_queue_depth",
        "dnuca.rows", "dnuca.bank_ways", "dnuca.bank_sets",
        "memory.queue_depth", "bus.width_bytes"};
    const std::vector<std::string> keeps = {
        "l1.mshr_secondary", "l2.banks", "l1.completion_latency",
        "l3.initiation_interval", "core.mispredict_penalty",
        "fabric.exit_queue_depth", "dnuca.bank_latency",
        "memory.first_chunk_latency", "bus.arbitration"};
    const auto with_zero = [](const std::string& key) {
        return R"({"schema": "lnuca_sweep/1", "presets": ["l2"],
                   "workloads": ["429.mcf"], "overrides": [{")" +
               key + R"(": 0}]})";
    };
    for (const std::string& key : breaks)
        EXPECT_NE(parse_error(with_zero(key))
                      .find("override '" + key + "' must be positive"),
                  std::string::npos)
            << key;
    for (const std::string& key : keeps)
        EXPECT_EQ(parse_or_die(with_zero(key)).configs.size(), 1u) << key;
}

// --------------------------------------------------------------------------
// Axis expansion.
// --------------------------------------------------------------------------

TEST(manifest, expands_the_axis_product_in_declared_order)
{
    const manifest m = parse_or_die(k_manifest);
    // 2 presets x 2 core counts (x 1 engine x 1 sampling x 1 override set).
    ASSERT_EQ(m.configs.size(), 4u);
    EXPECT_EQ(m.configs[0].name, "L2-256KB");
    EXPECT_EQ(m.configs[1].name, "L2-256KB-2c");
    EXPECT_EQ(m.configs[2].name, "LN3-144KB");
    EXPECT_EQ(m.configs[3].name, "LN3-144KB-2c");
    EXPECT_EQ(m.configs[1].cores, 2u);
    ASSERT_EQ(m.workloads.size(), 2u);
    EXPECT_EQ(m.workloads[1].scenario, "ping_pong");
    EXPECT_EQ(m.replicates, 2u);
    EXPECT_EQ(m.total_jobs(), 4u * 2u * 2u);
    EXPECT_EQ(m.instructions, 1000u);
    EXPECT_EQ(m.warmup, 200u);
    EXPECT_EQ(m.base_seed, 7u);
    EXPECT_NE(m.hash, 0u);

    // cores=1 partner on the same coordinates, self for cores=1 rows.
    ASSERT_EQ(m.baseline_config.size(), 4u);
    EXPECT_EQ(m.baseline_config[0], std::size_t{0});
    EXPECT_EQ(m.baseline_config[1], std::size_t{0});
    EXPECT_EQ(m.baseline_config[2], std::size_t{2});
    EXPECT_EQ(m.baseline_config[3], std::size_t{2});
}

TEST(manifest, engine_sampling_and_override_axes_suffix_the_config_name)
{
    const manifest m = parse_or_die(R"({
      "schema": "lnuca_sweep/1",
      "presets": ["l2"],
      "engine": ["skip", "dense"],
      "sampling": ["off", "periodic:2000:40000"],
      "overrides": [{}, {"l2.size_kb": 512, "core.rob_size": 64}],
      "workloads": ["429.mcf"]
    })");
    ASSERT_EQ(m.configs.size(), 8u);
    EXPECT_EQ(m.configs[0].name, "L2-256KB");
    // Override keys suffix in sorted order regardless of JSON order.
    EXPECT_EQ(m.configs[1].name, "L2-256KB+core.rob_size=64+l2.size_kb=512");
    EXPECT_EQ(m.configs[2].name, "L2-256KB+periodic:2000:40000:1000");
    EXPECT_EQ(m.configs[4].name, "L2-256KB+dense");
    EXPECT_EQ(m.configs[7].name,
              "L2-256KB+dense+periodic:2000:40000:1000"
              "+core.rob_size=64+l2.size_kb=512");
    EXPECT_EQ(m.configs[4].engine_mode, sim::schedule_mode::dense);
    EXPECT_TRUE(m.configs[2].sampling.enabled);
    EXPECT_EQ(m.configs[2].sampling.detail_warmup, 1000u);
}

TEST(manifest, overrides_round_trip_into_system_config)
{
    const manifest m = parse_or_die(R"({
      "schema": "lnuca_sweep/1",
      "presets": ["ln3+dn"],
      "overrides": [{"l1.ways": 8, "fabric.mshr_entries": 24,
                     "dnuca.bank_latency": 5, "memory.queue_depth": 9,
                     "bus.width_bytes": 32, "core.rob_size": 96,
                     "l3.size_kb": 4096}],
      "workloads": ["429.mcf"]
    })");
    ASSERT_EQ(m.configs.size(), 1u);
    const hier::system_config& c = m.configs[0];
    EXPECT_EQ(c.l1.ways, 8u);
    EXPECT_EQ(c.fabric.mshr_entries, 24u);
    EXPECT_EQ(c.dnuca.bank_latency, 5u);
    EXPECT_EQ(c.memory.queue_depth, 9u);
    EXPECT_EQ(c.l1_l2_bus.width_bytes, 32u);
    EXPECT_EQ(c.core.rob_size, 96u);
    EXPECT_EQ(c.l3.size_bytes, 4096u * 1024u);
}

// --------------------------------------------------------------------------
// Canonical hashing.
// --------------------------------------------------------------------------

TEST(manifest, hash_ignores_formatting_key_order_and_alias_spelling)
{
    const manifest a = parse_or_die(k_manifest);
    // Same experiment: reordered keys, collapsed whitespace, preset
    // aliases ("l2" for "L2-256KB", "LN3-144KB" for "ln3"), and override
    // key order all hash identically.
    const manifest b = parse_or_die(
        R"({"workloads":["429.mcf","scenario:ping_pong"],"base_seed":7,)"
        R"("cores":[1,2],"presets":["l2","LN3-144KB"],"replicates":2,)"
        R"("instructions":1000,"warmup":200,"name":"unit",)"
        R"("schema":"lnuca_sweep/1"})");
    EXPECT_EQ(a.hash, b.hash);

    const manifest c = parse_or_die(R"({
      "schema": "lnuca_sweep/1", "presets": ["l2"], "workloads": ["429.mcf"],
      "overrides": [{"l2.size_kb": 512, "l2.ways": 16}]})");
    const manifest d = parse_or_die(R"({
      "schema": "lnuca_sweep/1", "presets": ["l2"], "workloads": ["429.mcf"],
      "overrides": [{"l2.ways": 16, "l2.size_kb": 512}]})");
    EXPECT_EQ(c.hash, d.hash);
}

TEST(manifest, hash_changes_when_the_experiment_changes)
{
    const manifest base = parse_or_die(k_manifest);
    std::set<std::uint64_t> hashes{base.hash};
    for (const char* variant : {
             // instructions 1000 -> 2000
             R"({"schema":"lnuca_sweep/1","name":"unit",
                 "presets":["L2-256KB","ln3"],"cores":[1,2],
                 "workloads":["429.mcf","scenario:ping_pong"],
                 "replicates":2,"base_seed":7,"instructions":2000,
                 "warmup":200})",
             // workload order is part of the axis definition
             R"({"schema":"lnuca_sweep/1","name":"unit",
                 "presets":["L2-256KB","ln3"],"cores":[1,2],
                 "workloads":["scenario:ping_pong","429.mcf"],
                 "replicates":2,"base_seed":7,"instructions":1000,
                 "warmup":200})",
             // one more override set
             R"({"schema":"lnuca_sweep/1","name":"unit",
                 "presets":["L2-256KB","ln3"],"cores":[1,2],
                 "workloads":["429.mcf","scenario:ping_pong"],
                 "replicates":2,"base_seed":7,"instructions":1000,
                 "warmup":200,"overrides":[{},{"l2.ways":16}]})",
         }) {
        hashes.insert(parse_or_die(variant).hash);
    }
    EXPECT_EQ(hashes.size(), 4u); // all distinct
}

// --------------------------------------------------------------------------
// Sweep equivalence.
// --------------------------------------------------------------------------

TEST(manifest, shard_union_equals_the_unsharded_sweep)
{
    const manifest m = parse_or_die(k_manifest);
    const std::vector<job> full = m.to_sweep().build();
    ASSERT_EQ(full.size(), m.total_jobs());

    std::map<std::size_t, job> merged;
    for (std::size_t shard = 0; shard < 3; ++shard) {
        sweep s = m.to_sweep();
        s.shard(shard, 3);
        for (job& j : s.build()) {
            EXPECT_TRUE(merged.emplace(j.key.flat, std::move(j)).second)
                << "flat " << j.key.flat << " appeared in two shards";
        }
    }
    ASSERT_EQ(merged.size(), full.size());
    for (const job& j : full) {
        const job& shard_job = merged.at(j.key.flat);
        EXPECT_TRUE(shard_job.key == j.key);
        EXPECT_EQ(shard_job.seed, j.seed);
        EXPECT_EQ(shard_job.manifest_hash, m.hash);
        EXPECT_EQ(shard_job.config.name, j.config.name);
        EXPECT_EQ(shard_job.workload.name, j.workload.name);
    }
}

// --------------------------------------------------------------------------
// Merging (the library behind tools/merge_tool.cpp).
// --------------------------------------------------------------------------

// Deterministic fake result for a job; no simulation needed to exercise
// the merge bookkeeping.
hier::run_result fake_result(const job& j)
{
    hier::run_result r;
    r.config_name = j.config.name;
    r.workload_name = j.workload.name;
    r.instructions = j.instructions;
    r.cycles = 1000 + j.key.flat;
    r.ipc = 0.5 + 0.001 * double(j.key.flat);
    r.host_seconds = 0.25; // nondeterministic trio: must not affect merging
    r.sim_cycles_per_second = 1e6;
    r.sim_instructions_per_second = 5e5;
    return r;
}

std::string line_of(const job& j, const hier::run_result& r)
{
    return encode_json_line(j, r) + "\n";
}

struct merge_fixture {
    manifest m = parse_or_die(k_manifest);
    std::vector<job> jobs = m.to_sweep().build();

    std::string shard_content(std::size_t shard, std::size_t count) const
    {
        std::string out;
        for (const job& j : jobs)
            if (j.key.flat % count == shard)
                out += line_of(j, fake_result(j));
        return out;
    }
};

TEST(merge, shards_merge_to_the_canonical_clean_run)
{
    merge_fixture f;
    std::string merged;
    merge_report report;
    std::string error;
    ASSERT_TRUE(merge_results(
        f.m, {{"s0", f.shard_content(0, 2)}, {"s1", f.shard_content(1, 2)}},
        merged, report, &error))
        << error;
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.rows_seen, f.jobs.size());
    EXPECT_EQ(report.duplicates, 0u);
    EXPECT_EQ(report.torn_tails, 0u);

    std::string clean;
    for (const job& j : f.jobs)
        clean += line_of(j, fake_result(j));
    EXPECT_EQ(merged, clean); // flat order, bit-identical rows
}

TEST(merge, agreeing_duplicates_collapse_but_conflicts_are_fatal)
{
    merge_fixture f;
    // Same rows twice, one with a different host-timing trio: still one
    // merged row per flat (host timing is excluded from identity).
    std::string copy;
    for (const job& j : f.jobs) {
        hier::run_result r = fake_result(j);
        r.host_seconds = 9.75;
        copy += line_of(j, r);
    }
    std::string merged;
    merge_report report;
    std::string error;
    ASSERT_TRUE(merge_results(f.m,
                              {{"a", f.shard_content(0, 1)}, {"b", copy}},
                              merged, report, &error))
        << error;
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.duplicates, f.jobs.size());

    // A duplicate that differs on a *deterministic* field is evidence of
    // nondeterminism (or seed reuse) and must be a hard error.
    hier::run_result conflicting = fake_result(f.jobs[0]);
    conflicting.cycles += 1;
    EXPECT_FALSE(merge_results(f.m,
                               {{"a", f.shard_content(0, 1)},
                                {"b", line_of(f.jobs[0], conflicting)}},
                               merged, report, &error));
    EXPECT_NE(error.find("conflicting completed rows"), std::string::npos);
}

TEST(merge, missing_and_failed_flats_are_reported_not_invented)
{
    merge_fixture f;
    // Shard 1 only => all of shard 0's flats missing.
    std::string merged;
    merge_report report;
    std::string error;
    ASSERT_TRUE(merge_results(f.m, {{"s1", f.shard_content(1, 2)}}, merged,
                              report, &error))
        << error;
    EXPECT_FALSE(report.complete());
    ASSERT_FALSE(report.missing.empty());
    EXPECT_EQ(report.missing.size() + report.rows_seen, f.jobs.size());
    EXPECT_EQ(report.missing[0], 0u);

    // A failed row is superseded by a later ok row; without one it is a
    // "failed" flat, distinct from "missing".
    hier::run_result failed = fake_result(f.jobs[0]);
    failed.status = hier::run_status::failed;
    failed.error = "injected";
    ASSERT_TRUE(merge_results(
        f.m,
        {{"fail", line_of(f.jobs[0], failed)},
         {"rest", f.shard_content(1, 2)}},
        merged, report, &error))
        << error;
    ASSERT_EQ(report.failed.size(), 1u);
    EXPECT_EQ(report.failed[0], 0u);

    ASSERT_TRUE(merge_results(
        f.m,
        {{"fail", line_of(f.jobs[0], failed)},
         {"retry", line_of(f.jobs[0], fake_result(f.jobs[0]))}},
        merged, report, &error))
        << error;
    EXPECT_TRUE(report.failed.empty());
    EXPECT_NE(merged.find("\"status\":\"ok\""), merged.npos);

    const std::string summary = describe_merge(report);
    EXPECT_NE(summary.find("missing flats"), std::string::npos);
}

TEST(merge, torn_tail_only_tolerated_on_the_last_line)
{
    merge_fixture f;
    const std::string full = f.shard_content(0, 1);

    // Torn tail: final line cut mid-record.
    std::string torn = full.substr(0, full.size() - 25);
    std::string merged;
    merge_report report;
    std::string error;
    ASSERT_TRUE(merge_results(f.m, {{"torn", torn}}, merged, report, &error))
        << error;
    EXPECT_EQ(report.torn_tails, 1u);
    EXPECT_FALSE(report.complete()); // the torn row is missing
    EXPECT_EQ(report.missing.size(), 1u);

    // The same torn line mid-file poisons the input.
    std::string corrupt = torn + "\n" + full.substr(full.rfind('{'));
    EXPECT_FALSE(
        merge_results(f.m, {{"corrupt", corrupt}}, merged, report, &error));
    EXPECT_NE(error.find("corrupt"), std::string::npos);
}

TEST(merge, foreign_rows_are_hard_errors)
{
    merge_fixture f;
    // A row from a different manifest (different instruction count =>
    // different hash and run length) must never merge in silently.
    const manifest other = parse_or_die(R"({
      "schema": "lnuca_sweep/1", "name": "unit",
      "presets": ["L2-256KB", "ln3"], "cores": [1, 2],
      "workloads": ["429.mcf", "scenario:ping_pong"],
      "replicates": 2, "base_seed": 7,
      "instructions": 2000, "warmup": 200})");
    const std::vector<job> foreign = other.to_sweep().build();
    std::string merged;
    merge_report report;
    std::string error;
    EXPECT_FALSE(merge_results(
        f.m, {{"foreign", line_of(foreign[0], fake_result(foreign[0]))}},
        merged, report, &error));
    EXPECT_NE(error.find("does not belong to this sweep"),
              std::string::npos);

    // Flat index beyond the manifest's job count: also fatal.
    job oob = f.jobs[0];
    oob.key.flat = f.jobs.size() + 5;
    EXPECT_FALSE(merge_results(f.m,
                               {{"oob", line_of(oob, fake_result(oob))}},
                               merged, report, &error));
    EXPECT_NE(error.find("outside the sweep"), std::string::npos);
}

} // namespace
