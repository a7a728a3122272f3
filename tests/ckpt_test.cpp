// Checkpoint/restore (src/ckpt/ + hier::system + exp wiring): a run killed
// at an arbitrary snapshot and resumed must be bit-identical to the same
// run left uninterrupted, across backends, CMP, sampled fidelity and
// scenario (trace-lane) workloads; corrupt/truncated/foreign checkpoints
// must fall back to a cold start, never to wrong results.
//
// The kill is the deterministic in-process test hook
// (checkpoint_config::halt_after): after the Nth successful save the driver
// throws ckpt::interrupted exactly as a latched SIGTERM would. The
// reference run is the *same command with checkpointing enabled* left to
// finish — that is the documented contract (chunk-boundary drains are part
// of the checkpointed schedule).
#include "src/ckpt/archive.h"
#include "src/ckpt/format.h"
#include "src/ckpt/reader.h"
#include "src/ckpt/signal.h"
#include "src/exp/runner.h"
#include "src/exp/sink.h"
#include "src/exp/sweep.h"
#include "src/hier/presets.h"
#include "src/hier/system.h"
#include "src/trace/workload_spec.h"
#include "src/workloads/spec2006.h"
#include "tests/run_result_compare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

namespace lnuca {
namespace {

std::string temp_path(const std::string& name)
{
    return ::testing::TempDir() + "lnuca_" + name;
}

bool file_exists(const std::string& path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

/// The uninterrupted reference: same config, checkpointing enabled, never
/// killed. (Checkpointing itself must not change results either — the
/// completed run's snapshot is unlinked, which is also verified here.)
hier::run_result run_clean(hier::system_config config,
                           const wl::workload_profile& workload,
                           std::uint64_t instructions, std::uint64_t warmup,
                           std::uint64_t seed)
{
    const hier::run_result r =
        hier::run_one(config, workload, instructions, warmup, seed);
    EXPECT_FALSE(file_exists(config.checkpoint.path))
        << "completed run must unlink its snapshot";
    return r;
}

/// Kill at the halt_after'th save, then resume from the snapshot.
hier::run_result run_killed_and_resumed(hier::system_config config,
                                        const wl::workload_profile& workload,
                                        std::uint64_t instructions,
                                        std::uint64_t warmup,
                                        std::uint64_t seed,
                                        std::uint64_t halt_after)
{
    hier::system_config killed = config;
    killed.checkpoint.halt_after = halt_after;
    bool interrupted = false;
    try {
        hier::run_one(killed, workload, instructions, warmup, seed);
    } catch (const ckpt::interrupted& e) {
        interrupted = true;
        EXPECT_EQ(e.checkpoint_path, config.checkpoint.path);
    }
    EXPECT_TRUE(interrupted) << "halt_after=" << halt_after
                             << " never reached a save boundary";
    EXPECT_TRUE(file_exists(config.checkpoint.path));

    // The snapshot on disk must validate end to end (what `ckpt_tool
    // validate` runs).
    {
        const ckpt::reader r(config.checkpoint.path);
        EXPECT_GE(r.sections().size(), 5u);
    }

    hier::system_config resumed = config;
    resumed.checkpoint.resume = true;
    return hier::run_one(resumed, workload, instructions, warmup, seed);
}

hier::system_config with_checkpoint(hier::system_config config,
                                    const std::string& path,
                                    std::uint64_t every)
{
    config.checkpoint.path = path;
    config.checkpoint.every = every;
    std::remove(path.c_str());
    return config;
}

struct kill_case {
    const char* tag;
    std::uint64_t halt_after;
};

// ---------------------------------------------------------------------------
// Bit-identity: kill + resume == uninterrupted, across the matrix.
// ---------------------------------------------------------------------------

TEST(ckpt_identity, single_core_conventional_exact)
{
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    for (const kill_case c : {kill_case{"early", 1}, kill_case{"late", 3}}) {
        SCOPED_TRACE(c.tag);
        const hier::system_config config = with_checkpoint(
            hier::presets::l2_256kb(),
            temp_path(std::string("single_") + c.tag + ".ckpt"), 4000);
        const auto clean = run_clean(config, workload, 20'000, 2'000, 7);
        const auto resumed =
            run_killed_and_resumed(config, workload, 20'000, 2'000, 7,
                                   c.halt_after);
        expect_sim_fields_identical(clean, resumed);
    }
}

TEST(ckpt_identity, single_core_lnuca_paranoid_engine)
{
    // paranoid re-checks hub/engine invariants; on restore it additionally
    // runs the digest comparison against a freshly recomputed state_digest.
    hier::system_config base = hier::presets::lnuca_l3(3);
    base.engine_mode = sim::schedule_mode::paranoid;
    const hier::system_config config = with_checkpoint(
        base, temp_path("lnuca_paranoid.ckpt"), 5000);
    const wl::workload_profile workload = *wl::find_spec2006("456.hmmer");
    const auto clean = run_clean(config, workload, 18'000, 2'000, 11);
    const auto resumed =
        run_killed_and_resumed(config, workload, 18'000, 2'000, 11, 2);
    expect_sim_fields_identical(clean, resumed);
}

TEST(ckpt_identity, single_core_dnuca_exact)
{
    const hier::system_config config = with_checkpoint(
        hier::presets::dnuca_4x8(), temp_path("dnuca.ckpt"), 6000);
    const wl::workload_profile workload = *wl::find_spec2006("470.lbm");
    const auto clean = run_clean(config, workload, 18'000, 2'000, 3);
    const auto resumed =
        run_killed_and_resumed(config, workload, 18'000, 2'000, 3, 1);
    expect_sim_fields_identical(clean, resumed);
}

TEST(ckpt_identity, cmp_two_core_scenario_trace_lanes)
{
    // Scenario workloads replay shared-memory trace lanes, so this also
    // covers trace_stream cursor save/restore and the coherence hub +
    // directory sections.
    const auto workload = trace::parse_workload_spec("scenario:producer_consumer");
    ASSERT_TRUE(workload.has_value());
    const hier::system_config config = with_checkpoint(
        hier::presets::cmp(hier::presets::l2_256kb(), 2),
        temp_path("cmp_scenario.ckpt"), 3000);
    const auto clean = run_clean(config, *workload, 16'000, 2'000, 5);
    const auto resumed =
        run_killed_and_resumed(config, *workload, 16'000, 2'000, 5, 2);
    expect_sim_fields_identical(clean, resumed);
}

TEST(ckpt_identity, cmp_two_core_lnuca_exact)
{
    const hier::system_config config = with_checkpoint(
        hier::presets::cmp(hier::presets::lnuca_l3(2), 2),
        temp_path("cmp_lnuca.ckpt"), 4000);
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    const auto clean = run_clean(config, workload, 16'000, 2'000, 9);
    const auto resumed =
        run_killed_and_resumed(config, workload, 16'000, 2'000, 9, 1);
    expect_sim_fields_identical(clean, resumed);
}

TEST(ckpt_identity, sampled_single_core)
{
    const auto sampling = hier::parse_sampling_spec("periodic:2000:8000:800");
    ASSERT_TRUE(sampling.has_value());
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    // The LN3 fabric's warm path reads only its tile tags, which the
    // snapshot carries; a resumed run must fast-forward the same way.
    for (hier::system_config base :
         {hier::presets::l2_256kb(), hier::presets::lnuca_l3(3)}) {
        base.sampling = *sampling;
        for (const kill_case c : {kill_case{"w1", 1}, kill_case{"w2", 2}}) {
            SCOPED_TRACE(base.name + " " + c.tag);
            const hier::system_config config = with_checkpoint(
                base,
                temp_path("sampled_" + base.name + "_" + c.tag + ".ckpt"),
                8000);
            const auto clean = run_clean(config, workload, 32'000, 2'000, 17);
            const auto resumed =
                run_killed_and_resumed(config, workload, 32'000, 2'000, 17,
                                       c.halt_after);
            ASSERT_TRUE(clean.sampled);
            expect_sim_fields_identical(clean, resumed);
        }
    }
}

TEST(ckpt_identity, sampled_cmp_scenario)
{
    hier::system_config base = hier::presets::cmp(hier::presets::lnuca_l3(3), 2);
    const auto sampling = hier::parse_sampling_spec("periodic:1000:8000:400");
    ASSERT_TRUE(sampling.has_value());
    base.sampling = *sampling;
    const auto workload = trace::parse_workload_spec("scenario:producer_consumer");
    ASSERT_TRUE(workload.has_value());
    const hier::system_config config = with_checkpoint(
        base, temp_path("sampled_cmp.ckpt"), 8000);
    const auto clean = run_clean(config, *workload, 32'000, 4'000, 13);
    const auto resumed =
        run_killed_and_resumed(config, *workload, 32'000, 4'000, 13, 1);
    ASSERT_TRUE(clean.sampled);
    EXPECT_EQ(clean.cores, 2u);
    expect_sim_fields_identical(clean, resumed);
}

// ---------------------------------------------------------------------------
// Damage and mismatch: always a warned cold start, never wrong results.
// ---------------------------------------------------------------------------

/// Leave a valid snapshot at `config.checkpoint.path` by killing a run.
void leave_snapshot(const hier::system_config& config,
                    const wl::workload_profile& workload,
                    std::uint64_t instructions, std::uint64_t warmup,
                    std::uint64_t seed)
{
    hier::system_config killed = config;
    killed.checkpoint.halt_after = 1;
    try {
        hier::run_one(killed, workload, instructions, warmup, seed);
        FAIL() << "expected ckpt::interrupted";
    } catch (const ckpt::interrupted&) {
    }
    ASSERT_TRUE(file_exists(config.checkpoint.path));
}

TEST(ckpt_damage, corrupt_byte_falls_back_to_cold_start)
{
    const hier::system_config config = with_checkpoint(
        hier::presets::l2_256kb(), temp_path("corrupt.ckpt"), 4000);
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    const auto clean = run_clean(config, workload, 12'000, 1'000, 7);

    leave_snapshot(config, workload, 12'000, 1'000, 7);
    {
        // Flip one payload byte mid-file: a section CRC must catch it.
        std::fstream f(config.checkpoint.path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        ASSERT_GT(size, 128);
        f.seekp(size / 2);
        char byte = 0;
        f.seekg(size / 2);
        f.read(&byte, 1);
        byte = char(byte ^ 0x40);
        f.seekp(size / 2);
        f.write(&byte, 1);
    }
    EXPECT_THROW(ckpt::reader r(config.checkpoint.path), ckpt::ckpt_error);

    hier::system_config resumed = config;
    resumed.checkpoint.resume = true;
    const auto r = hier::run_one(resumed, workload, 12'000, 1'000, 7);
    expect_sim_fields_identical(clean, r); // cold start, full re-run
}

TEST(ckpt_damage, truncated_file_falls_back_to_cold_start)
{
    const hier::system_config config = with_checkpoint(
        hier::presets::l2_256kb(), temp_path("truncated.ckpt"), 4000);
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    const auto clean = run_clean(config, workload, 12'000, 1'000, 7);

    leave_snapshot(config, workload, 12'000, 1'000, 7);
    {
        std::ifstream in(config.checkpoint.path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), 200u);
        std::ofstream out(config.checkpoint.path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size() / 3));
    }
    EXPECT_THROW(ckpt::reader r(config.checkpoint.path), ckpt::ckpt_error);

    hier::system_config resumed = config;
    resumed.checkpoint.resume = true;
    const auto r = hier::run_one(resumed, workload, 12'000, 1'000, 7);
    expect_sim_fields_identical(clean, r);
}

TEST(ckpt_damage, foreign_run_checkpoint_is_rejected_cold)
{
    // A snapshot from seed 7 must not restore into a seed 8 run: the
    // config hash differs, so the restore is rejected before any state is
    // touched and the seed-8 run proceeds cold.
    const hier::system_config config = with_checkpoint(
        hier::presets::l2_256kb(), temp_path("foreign.ckpt"), 4000);
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    const auto clean8 = run_clean(config, workload, 12'000, 1'000, 8);

    leave_snapshot(config, workload, 12'000, 1'000, 7);
    hier::system_config resumed = config;
    resumed.checkpoint.resume = true;
    const auto r = hier::run_one(resumed, workload, 12'000, 1'000, 8);
    expect_sim_fields_identical(clean8, r);
}

TEST(ckpt_damage, shorter_run_rejects_longer_runs_snapshot)
{
    // Same config and seed but a different requested run length: the meta
    // section mismatch must force a cold start (a 12k snapshot cursor
    // inside an 8k run would be past the end).
    const hier::system_config config = with_checkpoint(
        hier::presets::l2_256kb(), temp_path("meta_mismatch.ckpt"), 3000);
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    const auto clean = run_clean(config, workload, 8'000, 1'000, 7);

    leave_snapshot(config, workload, 12'000, 1'000, 7);
    hier::system_config resumed = config;
    resumed.checkpoint.resume = true;
    const auto r = hier::run_one(resumed, workload, 8'000, 1'000, 7);
    expect_sim_fields_identical(clean, r);
}

TEST(ckpt_damage, other_cadence_snapshot_is_rejected_cold)
{
    // In exact mode checkpoint.every sets the chunk boundaries and their
    // drains, so it is part of the schedule: a snapshot taken at every=3000
    // resumed under every=7000 would finish with a row matching neither
    // cadence. The identity hash covers the cadence, so the resume starts
    // cold and reproduces the clean every=7000 run.
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    const std::string path = temp_path("cadence.ckpt");
    const hier::system_config every7000 =
        with_checkpoint(hier::presets::l2_256kb(), path, 7000);
    const auto clean = run_clean(every7000, workload, 20'000, 2'000, 5);

    leave_snapshot(with_checkpoint(hier::presets::l2_256kb(), path, 3000),
                   workload, 20'000, 2'000, 5);
    hier::system_config resumed = every7000;
    resumed.checkpoint.resume = true;
    const auto r = hier::run_one(resumed, workload, 20'000, 2'000, 5);
    expect_sim_fields_identical(clean, r);
}

TEST(ckpt_damage, older_version_files_are_rejected_cold)
{
    // Every format bump changed a payload layout (version 2: the `driver`
    // section; version 3: the component counters and the driver's energy
    // events; version 4: the directory and TLB index tables; version 5:
    // the fabric's warm rotation pointers). An older snapshot (otherwise
    // intact, header CRC re-signed) must be refused at open and the
    // resumed run must start cold.
    const hier::system_config config = with_checkpoint(
        hier::presets::l2_256kb(), temp_path("old_version.ckpt"), 4000);
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    const auto clean = run_clean(config, workload, 12'000, 1'000, 7);

    for (std::uint32_t version = 1; version < ckpt::k_version; ++version) {
        leave_snapshot(config, workload, 12'000, 1'000, 7);
        {
            std::fstream f(config.checkpoint.path,
                           std::ios::in | std::ios::out | std::ios::binary);
            ASSERT_TRUE(f.good());
            ckpt::file_header header{};
            f.read(reinterpret_cast<char*>(&header), sizeof header);
            ASSERT_EQ(header.version, ckpt::k_version);
            header.version = version;
            header.header_crc = 0;
            header.header_crc = ckpt::crc32(&header, sizeof header);
            f.seekp(0);
            f.write(reinterpret_cast<const char*>(&header), sizeof header);
        }
        const std::string expected =
            "format version " + std::to_string(version);
        try {
            const ckpt::reader r(config.checkpoint.path);
            FAIL() << "a version-" << version << " file must not open";
        } catch (const ckpt::ckpt_error& e) {
            EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
                << e.what();
        }

        hier::system_config resumed = config;
        resumed.checkpoint.resume = true;
        const auto r = hier::run_one(resumed, workload, 12'000, 1'000, 7);
        expect_sim_fields_identical(clean, r);
    }
}

// ---------------------------------------------------------------------------
// Pinned bytes: the snapshot a run leaves is compared against hashes
// recorded from an earlier build, so a writer rewrite that shifts a byte
// (padding, section order, table layout, element encoding) fails here even
// when save and restore still agree with each other.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    char c;
    while (in.get(c)) {
        h ^= std::uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(ckpt_bytes, first_snapshot_matches_recorded_hash)
{
    // A constant here may be re-recorded only together with a checkpoint
    // format version bump or a simulated-state change listed in CHANGES.md;
    // LNUCA_GOLDEN_PRINT=1 prints the current values. The digests section
    // holds counter_set::digest() values, which hash counter names with
    // libstdc++'s std::hash, so the constants hold for libstdc++ only.
#ifndef __GLIBCXX__
    GTEST_SKIP() << "pinned hashes were recorded with libstdc++";
#endif
    struct pinned {
        const char* label;
        hier::system_config config;
        const char* workload;
        const char* sampling;
        std::uint64_t every;
        std::uint64_t hash;
    };
    const pinned cases[] = {
        {"L2-256KB exact", hier::presets::l2_256kb(), "429.mcf", nullptr,
         3000, 0x729cb9e568a677c2ULL},
        {"LN3-144KB-2c sampled",
         hier::presets::cmp(hier::presets::lnuca_l3(3), 2),
         "scenario:producer_consumer", "periodic:1000:4000:400", 4000,
         0x09b8f84e65135153ULL},
        {"DN-4x8 exact", hier::presets::dnuca_4x8(), "470.lbm", nullptr, 3000,
         0x9d51de03d79593baULL},
    };
    const bool print = std::getenv("LNUCA_GOLDEN_PRINT") != nullptr;
    for (const pinned& c : cases) {
        SCOPED_TRACE(c.label);
        hier::system_config base = c.config;
        if (c.sampling != nullptr) {
            const auto sampling = hier::parse_sampling_spec(c.sampling);
            ASSERT_TRUE(sampling.has_value());
            base.sampling = *sampling;
        }
        const auto workload = trace::parse_workload_spec(c.workload);
        ASSERT_TRUE(workload.has_value());
        const hier::system_config config = with_checkpoint(
            base, temp_path("pinned_" + base.name + ".ckpt"), c.every);
        leave_snapshot(config, *workload, 10'000, 1'000, 21);
        EXPECT_FALSE(file_exists(config.checkpoint.path + ".tmp"));
        const std::uint64_t hash = fnv1a_file(config.checkpoint.path);
        if (print)
            std::printf("    {\"%s\", 0x%016" PRIx64 "ULL},\n", c.label,
                        hash);
        EXPECT_EQ(hash, c.hash) << "snapshot bytes changed";
        std::remove(config.checkpoint.path.c_str());
    }
}

/// The textbook byte-at-a-time CRC-32 (reflected, 0xEDB88320).
std::uint32_t crc32_reference(const std::uint8_t* p, std::size_t size,
                              std::uint32_t seed = 0)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

TEST(ckpt_crc32, known_answer_and_byte_reference)
{
    EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(ckpt::crc32(nullptr, 0), 0u);

    std::mt19937_64 gen(0xc3c32);
    std::vector<std::uint8_t> bytes(1u << 20);
    for (auto& b : bytes)
        b = std::uint8_t(gen());

    // Every short length at every alignment: the word loop's head and tail.
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t length = 0; length <= 64; ++length)
            EXPECT_EQ(ckpt::crc32(bytes.data() + offset, length),
                      crc32_reference(bytes.data() + offset, length))
                << "offset " << offset << " length " << length;

    // 1 MiB whole, and in uneven chunks with the running value carried
    // over as the seed (how a section's CRC is built up).
    const std::uint32_t whole = crc32_reference(bytes.data(), bytes.size());
    EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()), whole);
    std::uint32_t running = 0;
    for (std::size_t at = 0, step = 1; at < bytes.size(); step = step * 3 + 1) {
        const std::size_t n = std::min(1 + step % 70001, bytes.size() - at);
        running = ckpt::crc32(bytes.data() + at, n, running);
        at += n;
    }
    EXPECT_EQ(running, whole);
}

// ---------------------------------------------------------------------------
// Streaming writer: the file is the image the format describes, built here
// by hand (header, table, 8-aligned zero-padded payloads), whatever the
// buffer flushes did along the way.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

struct hand_section {
    ckpt::section_id id;
    std::uint32_t index;
    std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t>
hand_image(const std::vector<hand_section>& sections, std::uint64_t hash)
{
    const auto align8 = [](std::size_t n) { return (n + 7) & ~std::size_t(7); };
    std::size_t offset = align8(sizeof(ckpt::file_header) +
                                sizeof(ckpt::section_entry) * sections.size());
    std::vector<ckpt::section_entry> table;
    for (const hand_section& s : sections) {
        table.push_back({std::uint32_t(s.id), s.index, offset,
                         s.payload.size(),
                         crc32_reference(s.payload.data(), s.payload.size()),
                         0});
        offset = align8(offset + s.payload.size());
    }
    ckpt::file_header header{};
    std::memcpy(header.magic, ckpt::k_magic, sizeof ckpt::k_magic);
    header.version = ckpt::k_version;
    header.endian = ckpt::k_endian_tag;
    header.section_count = std::uint32_t(sections.size());
    header.file_bytes = offset;
    header.config_hash = hash;
    header.header_crc =
        crc32_reference(reinterpret_cast<const std::uint8_t*>(&header),
                        sizeof header);

    std::vector<std::uint8_t> image(offset, 0);
    std::memcpy(image.data(), &header, sizeof header);
    std::memcpy(image.data() + sizeof header, table.data(),
                sizeof(ckpt::section_entry) * table.size());
    for (std::size_t i = 0; i < sections.size(); ++i)
        std::copy(sections[i].payload.begin(), sections[i].payload.end(),
                  image.begin() + std::ptrdiff_t(table[i].offset));
    return image;
}

TEST(ckpt_writer, streamed_file_equals_hand_built_image)
{
    constexpr std::size_t buffer = ckpt::writer::k_buffer_bytes;
    std::mt19937_64 gen(0x5ec7);
    const auto bytes = [&](std::size_t n) {
        std::vector<std::uint8_t> v(n);
        for (auto& b : v)
            b = std::uint8_t(gen());
        return v;
    };
    // The first section's padding ends exactly where the buffer does.
    // Sizes 0-17 cover every residue mod 8 and
    // an empty section; the large ones outgrow the buffer, and the run of
    // odd mid-sized ones puts section starts, ends and padding on both
    // sides of a flush.
    std::vector<hand_section> sections;
    sections.push_back({ckpt::section_id::meta, 0, bytes(buffer - 2)});
    for (std::size_t n = 0; n < 18; ++n)
        sections.push_back({ckpt::section_id::stream, std::uint32_t(n),
                            bytes(n)});
    sections.push_back({ckpt::section_id::l3, 0, bytes(3 * buffer + 5)});
    for (std::uint32_t i = 0; i < 9; ++i)
        sections.push_back({ckpt::section_id::core, i,
                            bytes(buffer / 3 + 2 * i + 1)});
    sections.push_back({ckpt::section_id::dnuca, 0, bytes(buffer)});
    sections.push_back({ckpt::section_id::digests, 0, bytes(buffer - 3)});

    const std::string path = temp_path("writer_image.ckpt");
    std::remove(path.c_str());
    {
        ckpt::writer w(path, sections.size());
        for (std::size_t i = 0; i < sections.size(); ++i) {
            const hand_section& s = sections[i];
            w.begin_section(s.id, s.index);
            if (i % 2 == 0) {
                w.put_bytes(s.payload.data(), s.payload.size());
            } else {
                for (const std::uint8_t b : s.payload)
                    w.put_u8(b);
            }
            w.end_section();
        }
        w.finalize(0x1234abcdULL);
    }
    EXPECT_FALSE(file_exists(path + ".tmp"));
    const std::vector<std::uint8_t> file = read_file(path);
    const std::vector<std::uint8_t> image = hand_image(sections, 0x1234abcdULL);
    ASSERT_EQ(file.size(), image.size());
    EXPECT_TRUE(file == image) << "streamed bytes differ from the image";
    EXPECT_NO_THROW(ckpt::reader{path});
    std::remove(path.c_str());
}

TEST(ckpt_writer, bulk_vectors_match_per_element_encoding)
{
    const std::vector<std::uint8_t> u8s = {1, 2, 3, 250, 0, 7, 9};
    const std::vector<std::uint16_t> u16s = {0, 1, 0xfffe, 0x1234, 77};
    const std::vector<std::uint32_t> u32s = {0xdeadbeef, 0, 1, 0x80000000u};
    std::vector<std::uint64_t> u64s(20000);
    for (std::size_t i = 0; i < u64s.size(); ++i)
        u64s[i] = i * 0x9e3779b97f4a7c15ULL;
    const std::vector<double> doubles = {0.0, -1.5, 3.25e300, 1e-310, 42.0};
    const std::vector<std::uint64_t> empty;

    const std::string bulk = temp_path("writer_bulk.ckpt");
    const std::string each = temp_path("writer_each.ckpt");
    {
        ckpt::writer w(bulk, 1);
        w.begin_section(ckpt::section_id::driver);
        ckpt::saver ar(w);
        ar(u8s);
        ar(u16s);
        ar(u32s);
        ar(u64s);
        ar(doubles);
        ar(empty);
        w.end_section();
        w.finalize(9);
    }
    {
        ckpt::writer w(each, 1);
        w.begin_section(ckpt::section_id::driver);
        w.put_u64(u8s.size());
        for (const auto v : u8s)
            w.put_u8(v);
        w.put_u64(u16s.size());
        for (const auto v : u16s)
            w.put_u16(v);
        w.put_u64(u32s.size());
        for (const auto v : u32s)
            w.put_u32(v);
        w.put_u64(u64s.size());
        for (const auto v : u64s)
            w.put_u64(v);
        w.put_u64(doubles.size());
        for (const auto v : doubles)
            w.put_double(v);
        w.put_u64(0);
        w.end_section();
        w.finalize(9);
    }
    EXPECT_TRUE(read_file(bulk) == read_file(each));

    ckpt::reader r(bulk);
    r.open_section(ckpt::section_id::driver);
    ckpt::loader ar(r);
    std::vector<std::uint8_t> u8_back;
    std::vector<std::uint16_t> u16_back;
    std::vector<std::uint32_t> u32_back;
    std::vector<std::uint64_t> u64_back, empty_back = {5};
    std::vector<double> double_back;
    ar(u8_back);
    ar(u16_back);
    ar(u32_back);
    ar(u64_back);
    ar(double_back);
    ar(empty_back);
    r.close_section();
    EXPECT_EQ(u8_back, u8s);
    EXPECT_EQ(u16_back, u16s);
    EXPECT_EQ(u32_back, u32s);
    EXPECT_EQ(u64_back, u64s);
    EXPECT_EQ(double_back, doubles);
    EXPECT_TRUE(empty_back.empty());
    std::remove(bulk.c_str());
    std::remove(each.c_str());
}

TEST(ckpt_writer, dropped_writer_leaves_previous_snapshot_untouched)
{
    const std::string path = temp_path("writer_dropped.ckpt");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "previous snapshot";
    }
    {
        ckpt::writer w(path, 2);
        w.begin_section(ckpt::section_id::meta);
        const std::vector<std::uint8_t> big(3 * ckpt::writer::k_buffer_bytes,
                                            0xab);
        w.put_bytes(big.data(), big.size());
        EXPECT_TRUE(file_exists(path + ".tmp"));
        // Destroyed mid-section, as an exception unwinding a save does.
    }
    EXPECT_FALSE(file_exists(path + ".tmp"));
    const std::vector<std::uint8_t> kept = read_file(path);
    EXPECT_EQ(std::string(kept.begin(), kept.end()), "previous snapshot");
    std::remove(path.c_str());
}

TEST(ckpt_writer, section_count_mismatch_throws_and_installs_nothing)
{
    const std::string path = temp_path("writer_count.ckpt");
    std::remove(path.c_str());
    {
        ckpt::writer w(path, 2);
        w.begin_section(ckpt::section_id::meta);
        w.put_u64(1);
        w.end_section();
        EXPECT_THROW(w.finalize(0), ckpt::ckpt_error);
    }
    {
        ckpt::writer w(path, 1);
        w.begin_section(ckpt::section_id::meta);
        w.end_section();
        EXPECT_THROW(w.begin_section(ckpt::section_id::engine),
                     ckpt::ckpt_error);
    }
    {
        ckpt::writer w(path, 0);
        EXPECT_THROW(w.put_u8(1), ckpt::ckpt_error);
    }
    EXPECT_FALSE(file_exists(path));
    EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(ckpt_writer, completed_run_removes_stale_tmp)
{
    // A kill during a save leaves `<path>.tmp` behind. The cadence is
    // longer than the run, so no save replaces it: only the run's
    // completion can remove it, together with the stale snapshot.
    const hier::system_config config = with_checkpoint(
        hier::presets::l2_256kb(), temp_path("stale_tmp.ckpt"), 1'000'000);
    for (const std::string& stale :
         {config.checkpoint.path, config.checkpoint.path + ".tmp"}) {
        std::ofstream out(stale, std::ios::binary | std::ios::trunc);
        out << "torn save";
    }
    hier::run_one(config, *wl::find_spec2006("429.mcf"), 6'000, 1'000, 7);
    EXPECT_FALSE(file_exists(config.checkpoint.path));
    EXPECT_FALSE(file_exists(config.checkpoint.path + ".tmp"));
}

// ---------------------------------------------------------------------------
// exp wiring: execute_job stamps per-job checkpoint files, interruption
// becomes a structured row, resume completes bit-identically.
// ---------------------------------------------------------------------------

exp::job make_job(const hier::system_config& config,
                  const wl::workload_profile& workload,
                  std::uint64_t instructions, std::uint64_t warmup)
{
    exp::job j;
    j.config = config;
    j.workload = workload;
    j.instructions = instructions;
    j.warmup = warmup;
    j.seed = 21;
    return j;
}

TEST(ckpt_exp, execute_job_interrupt_then_resume_is_bit_identical)
{
    const std::string dir = temp_path("jobs_ckpt_d");
    ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
    const std::string job_path = dir + "/job_0.ckpt";
    std::remove(job_path.c_str());

    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    exp::run_options opt;
    opt.checkpoint_dir = dir;
    opt.checkpoint_every = 4000;

    // Reference: the same stamped job left uninterrupted.
    exp::job clean_job = make_job(hier::presets::l2_256kb(), workload,
                                  20'000, 2'000);
    const hier::run_result clean = exp::execute_job(clean_job, opt);
    ASSERT_EQ(clean.status, hier::run_status::ok);
    EXPECT_FALSE(file_exists(job_path));

    // Interrupted job: halt_after survives the stamping (execute_job only
    // overrides path/every/resume), so the attempt throws ckpt::interrupted
    // and the runner converts it into a structured failed row.
    exp::job killed_job = clean_job;
    killed_job.config.checkpoint.halt_after = 2;
    const hier::run_result killed = exp::execute_job(killed_job, opt);
    EXPECT_EQ(killed.status, hier::run_status::failed);
    EXPECT_NE(killed.error.find("interrupted by signal"), std::string::npos);
    EXPECT_TRUE(file_exists(job_path));

    // Resume: restores the snapshot and finishes identically.
    opt.checkpoint_resume = true;
    const hier::run_result resumed = exp::execute_job(clean_job, opt);
    ASSERT_EQ(resumed.status, hier::run_status::ok);
    expect_sim_fields_identical(clean, resumed);
    EXPECT_FALSE(file_exists(job_path));
}

TEST(ckpt_exp, clean_sweep_has_no_abandoned_workers_or_sink_failures)
{
    exp::sweep s;
    s.add_config(hier::presets::l2_256kb())
        .add_workload(*wl::find_spec2006("429.mcf"))
        .add_workload(*wl::find_spec2006("456.hmmer"))
        .instructions(4'000)
        .warmup(500)
        .base_seed(3);
    const exp::report rep = exp::run_sweep(s, exp::run_options{2});
    ASSERT_EQ(rep.results.size(), 2u);
    for (const auto& r : rep.results)
        EXPECT_EQ(r.status, hier::run_status::ok);
    EXPECT_EQ(rep.abandoned_workers, 0u);
    EXPECT_EQ(rep.sink_failures, 0u);
}

// ---------------------------------------------------------------------------
// Sink durability: failed writes/fsyncs throw sink_error instead of
// silently dropping rows, and run_sweep survives by disabling the sink.
// ---------------------------------------------------------------------------

TEST(ckpt_sink, unopenable_path_reports_not_ok)
{
    exp::jsonl_sink sink(temp_path("no_such_dir") + "/x.jsonl", 1, 0);
    EXPECT_FALSE(sink.ok());
}

TEST(ckpt_sink, failed_write_throws_sink_error_naming_the_row)
{
    // /dev/full accepts the open and fails every write with ENOSPC — the
    // "disk filled mid-sweep" case. Skip quietly where it is absent.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full not available";
    exp::jsonl_sink sink("/dev/full", 1, 0);
    ASSERT_TRUE(sink.ok());
    exp::job j;
    j.config = hier::presets::l2_256kb();
    hier::run_result r;
    r.config_name = "cfg";
    r.workload_name = "wl";
    try {
        sink.consume(j, r); // flush_rows=1: flushes (and fails) right here
        FAIL() << "expected sink_error";
    } catch (const exp::sink_error& e) {
        EXPECT_NE(std::string(e.what()).find("row 0"), std::string::npos);
    }
    // The failed batch was dropped: destruction must not throw again.
}

TEST(ckpt_sink, run_sweep_disables_failed_sink_and_counts_it)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full not available";
    exp::jsonl_sink bad("/dev/full", 1, 0);
    ASSERT_TRUE(bad.ok());
    exp::sweep s;
    s.add_config(hier::presets::l2_256kb())
        .add_workload(*wl::find_spec2006("429.mcf"))
        .instructions(2'000)
        .warmup(200);
    const exp::report rep =
        exp::run_sweep(s, exp::run_options{1}, {&bad});
    ASSERT_EQ(rep.results.size(), 1u);
    EXPECT_EQ(rep.results[0].status, hier::run_status::ok); // jobs unharmed
    EXPECT_EQ(rep.sink_failures, 1u);
}

// ---------------------------------------------------------------------------
// Signal latch plumbing (the real SIGTERM path minus the signal itself).
// ---------------------------------------------------------------------------

TEST(ckpt_signal, latch_reports_signal_and_clears)
{
    ckpt::install_signal_handlers();
    EXPECT_FALSE(ckpt::interrupt_requested());
    ::raise(SIGTERM);
    EXPECT_TRUE(ckpt::interrupt_requested());
    EXPECT_EQ(ckpt::interrupt_signal(), SIGTERM);
    ckpt::clear_interrupt();
    EXPECT_FALSE(ckpt::interrupt_requested());
}

TEST(ckpt_signal, latched_signal_saves_at_next_boundary_and_interrupts)
{
    ckpt::install_signal_handlers();
    const hier::system_config config = with_checkpoint(
        hier::presets::l2_256kb(), temp_path("signal.ckpt"), 4000);
    const wl::workload_profile workload = *wl::find_spec2006("429.mcf");
    const auto clean = run_clean(config, workload, 20'000, 2'000, 7);

    ::raise(SIGTERM);
    bool interrupted = false;
    try {
        hier::run_one(config, workload, 20'000, 2'000, 7);
    } catch (const ckpt::interrupted&) {
        interrupted = true;
    }
    ckpt::clear_interrupt();
    EXPECT_TRUE(interrupted);
    EXPECT_TRUE(file_exists(config.checkpoint.path));

    hier::system_config resumed = config;
    resumed.checkpoint.resume = true;
    const auto r = hier::run_one(resumed, workload, 20'000, 2'000, 7);
    expect_sim_fields_identical(clean, r);
}

} // namespace
} // namespace lnuca
