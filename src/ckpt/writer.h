// Checkpoint writer: sections stream into `<path>.tmp` through one fixed
// buffer, and finalize installs the file atomically - header + table,
// fsync, rename, fsync of the containing directory - so a crash mid-save
// leaves either the previous complete checkpoint or none, never a torn one.
//
// The caller declares the section count up front. That fixes the size of
// the header and section table, so payloads start at a known offset and
// stream out as they are produced; finalize fills the reserved front of
// the file once every section's extent and CRC is known. A save's memory
// is the buffer and the table, whatever the snapshot's size.
#pragma once

#include "src/ckpt/format.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace lnuca::ckpt {

class writer {
public:
    /// Bytes buffered between writes to the tmp file.
    static constexpr std::size_t k_buffer_bytes = 64 * 1024;
    static_assert(k_buffer_bytes % 8 == 0, "payload padding must fit");

    /// Open `<path>.tmp` for a snapshot of exactly `section_count`
    /// sections. Throws ckpt_error if the file cannot be created.
    writer(const std::string& path, std::size_t section_count);
    /// A writer dropped before finalize (an exception mid-save) unlinks
    /// its tmp file; whatever sits at `path` is never touched.
    ~writer();

    writer(const writer&) = delete;
    writer& operator=(const writer&) = delete;

    /// Open a section. Sections cannot nest; every begin_section must be
    /// paired with end_section before the next begin or finalize.
    void begin_section(section_id id, std::uint32_t index = 0);
    void end_section();

    /// `data` may be null when `size` is 0 (an empty vector's storage).
    void put_bytes(const void* data, std::size_t size)
    {
        if (open_ && size <= k_buffer_bytes - fill_) {
            if (size != 0)
                std::memcpy(buffer_.get() + fill_, data, size);
            fill_ += size;
            return;
        }
        put_spill(data, size);
    }
    void put_u8(std::uint8_t v) { put_bytes(&v, 1); }
    void put_u16(std::uint16_t v) { put_bytes(&v, 2); }
    void put_u32(std::uint32_t v) { put_bytes(&v, 4); }
    void put_u64(std::uint64_t v) { put_bytes(&v, 8); }
    void put_bool(bool v) { put_u8(v ? 1 : 0); }
    void put_double(double v);
    /// Length-prefixed (u32) byte string.
    void put_string(const std::string& s);

    /// Flush, write the header and section table into the reserved front
    /// of the file, and install it at `path`. Throws ckpt_error on any I/O
    /// failure or if the sections written differ from those declared
    /// (callers warn and carry on - a failed save must never kill the run
    /// it is protecting).
    void finalize(std::uint64_t config_hash);

private:
    /// put_bytes when the section is closed or the bytes do not fit.
    void put_spill(const void* data, std::size_t size);
    /// Fold the open section's buffered bytes into its CRC, then write the
    /// buffer out.
    void flush();
    void fold_crc();

    std::string path_;
    std::string tmp_;
    int fd_ = -1;
    std::vector<section_entry> table_;
    std::size_t begun_ = 0; ///< sections begun so far
    std::unique_ptr<std::uint8_t[]> buffer_;
    std::size_t fill_ = 0;     ///< buffered bytes
    std::size_t crc_from_ = 0; ///< first buffered byte not yet in the CRC
    std::uint64_t buffer_at_;  ///< file offset of buffer_[0]
    bool open_ = false;
    bool installed_ = false;
};

} // namespace lnuca::ckpt
