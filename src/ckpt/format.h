// Checkpoint file format (LNCKPT1): versioned, sectioned, CRC-guarded.
//
// Layout (little-endian, all offsets from the start of the file; modeled on
// src/trace/format.h so both binary formats read the same way):
//
//   file_header                    64 bytes: magic, version, endian tag,
//                                  section count, config hash, header CRC
//   section_entry[section_count]   32 bytes each: id, index, payload extent
//                                  and payload CRC-32
//   per-section payloads           8-byte aligned byte streams
//
// A section is one component's serialized state (one `index` per replicated
// component: core 0, core 1, ...). Every payload carries its own CRC-32 and
// the header carries a CRC over itself, so any torn write, truncation or
// bit-rot is detected at open - a checkpoint either validates completely or
// the restore path falls back to a cold start (never to wrong results).
//
// What is deliberately NOT saved is as much a part of the format as what
// is: checkpoints are only written at quiescence (see DESIGN.md, "Checkpoint
// format and restore protocol"), so in-flight machinery - MSHRs, write
// buffers, lookup/refill pipelines, ROB contents, coherence transactions,
// NoC flit buffers - is empty by contract and is asserted empty rather than
// serialized.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lnuca::ckpt {

inline constexpr char k_magic[8] = {'L', 'N', 'C', 'K', 'P', 'T', '1', '\0'};
/// Version 5: the L-NUCA fabric no longer carries its warm-path rotation
/// pointers (its warm path follows the replacement links instead).
/// Version 4: the CMP directory and the data TLB no longer carry their
/// hash index (it is rebuilt from the slab / entry array on load).
inline constexpr std::uint32_t k_version = 5;
/// Written as a native u32; a reader on a differently-ordered host sees a
/// byte-swapped value and rejects the file instead of mis-decoding it.
inline constexpr std::uint32_t k_endian_tag = 0x01020304;

struct file_header {
    char magic[8];
    std::uint32_t version;
    std::uint32_t endian;
    std::uint32_t section_count;
    std::uint32_t header_crc; ///< CRC-32 of this header with the field zeroed
    std::uint64_t file_bytes; ///< total file size (truncation check)
    std::uint64_t config_hash; ///< run-identity hash (fast foreign-file reject)
    char reserved[24];         ///< zero; room for format growth
};
static_assert(sizeof(file_header) == 64, "checkpoint header layout drifted");

struct section_entry {
    std::uint32_t id;     ///< section_id value
    std::uint32_t index;  ///< replica index (core i, L1 i); 0 otherwise
    std::uint64_t offset; ///< payload bytes from file start, 8-aligned
    std::uint64_t size;   ///< payload bytes
    std::uint32_t crc;    ///< CRC-32 (IEEE) of the payload
    std::uint32_t pad;    ///< zero
};
static_assert(sizeof(section_entry) == 32, "checkpoint entry layout drifted");

/// Section identifiers. Values are part of the on-disk format - append
/// only, never renumber.
enum class section_id : std::uint32_t {
    meta = 1,    ///< run identity + progress cursor (always first)
    engine = 2,  ///< sim::engine clock/schedule counters
    core = 3,    ///< cpu::ooo_core, one per core (index = core)
    l1 = 4,      ///< private L1, one per core (index = core)
    hub = 5,     ///< coh::coherence_hub + directory (CMP only)
    bus = 6,     ///< mem::bus (conventional L1<->L2 connection)
    l2 = 7,      ///< shared conventional L2
    l3 = 8,      ///< shared conventional L3
    fabric = 9,  ///< fabric::lnuca_cache (tiles + transport state)
    dnuca = 10,  ///< dnuca::dnuca_cache (banks + mesh counters)
    memory = 11, ///< mem::main_memory
    stream = 12, ///< workload stream position, one per lane (index = lane)
    driver = 13, ///< hier::system run-driver progress (totals, window cursor)
    digests = 14, ///< per-component state_digest() values at save time
};

/// Any checkpoint failure that must NOT abort the run: corrupt/truncated
/// file, version or identity mismatch, unexpected layout. Callers catch it,
/// warn, and fall back to a cold start.
class ckpt_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Thrown by the run drivers after a SIGTERM/SIGINT-requested checkpoint
/// has been durably saved: the job did not fail, it was preempted -
/// re-running with --resume continues from the snapshot. Deliberately not a
/// ckpt_error so the fallback-to-cold-start handlers never swallow it.
class interrupted : public std::runtime_error {
public:
    explicit interrupted(const std::string& path)
        : std::runtime_error("interrupted by signal; checkpoint saved at " +
                             path),
          checkpoint_path(path)
    {
    }

    std::string checkpoint_path;
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) - the same CRC
/// zlib computes, hand-rolled so the checkpoint subsystem needs no
/// dependency. Incremental: pass the previous return value to continue.
/// Slicing-by-8: eight 256-entry tables fold eight bytes per step (table k
/// advances a byte's CRC over k further zero bytes), the byte-at-a-time
/// table finishes the tail. Words are assembled from bytes, so the result
/// does not depend on the host's byte order.
inline std::uint32_t crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0)
{
    using table = std::array<std::uint32_t, 256>;
    static const std::array<table, 8> t = [] {
        std::array<table, 8> s{};
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            s[0][n] = c;
        }
        for (std::uint32_t n = 0; n < 256; ++n)
            for (std::size_t k = 1; k < 8; ++k)
                s[k][n] = (s[k - 1][n] >> 8) ^ s[0][s[k - 1][n] & 0xFFu];
        return s;
    }();
    const auto le32 = [](const unsigned char* q) {
        return std::uint32_t(q[0]) | std::uint32_t(q[1]) << 8 |
               std::uint32_t(q[2]) << 16 | std::uint32_t(q[3]) << 24;
    };
    std::uint32_t crc = seed ^ 0xFFFFFFFFu;
    const auto* p = static_cast<const unsigned char*>(data);
    for (; size >= 8; p += 8, size -= 8) {
        const std::uint32_t lo = crc ^ le32(p);
        const std::uint32_t hi = le32(p + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
              t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
              t[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

constexpr const char* to_string(section_id id)
{
    switch (id) {
    case section_id::meta: return "meta";
    case section_id::engine: return "engine";
    case section_id::core: return "core";
    case section_id::l1: return "l1";
    case section_id::hub: return "hub";
    case section_id::bus: return "bus";
    case section_id::l2: return "l2";
    case section_id::l3: return "l3";
    case section_id::fabric: return "fabric";
    case section_id::dnuca: return "dnuca";
    case section_id::memory: return "memory";
    case section_id::stream: return "stream";
    case section_id::driver: return "driver";
    case section_id::digests: return "digests";
    }
    return "unknown";
}

} // namespace lnuca::ckpt
