#include "src/ckpt/writer.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace lnuca::ckpt {

namespace {

std::string parent_dir(const std::string& path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

[[noreturn]] void io_fail(const std::string& what, const std::string& path)
{
    throw ckpt_error("checkpoint save: " + what + " '" + path +
                     "': " + std::strerror(errno));
}

void write_all(int fd, const void* data, std::size_t size,
               std::uint64_t offset, const std::string& path)
{
    const char* p = static_cast<const char*>(data);
    std::size_t left = size;
    while (left > 0) {
        const ssize_t n = ::pwrite(fd, p, left, off_t(offset));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            io_fail("cannot write", path);
        p += n;
        offset += std::uint64_t(n);
        left -= std::size_t(n);
    }
}

constexpr std::uint64_t align8(std::uint64_t n)
{
    return (n + 7) & ~std::uint64_t(7);
}

} // namespace

writer::writer(const std::string& path, std::size_t section_count)
    : path_(path),
      tmp_(path + ".tmp"),
      table_(section_count),
      buffer_(std::make_unique<std::uint8_t[]>(k_buffer_bytes)),
      buffer_at_(align8(sizeof(file_header) +
                        sizeof(section_entry) * section_count))
{
    fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        io_fail("cannot open", tmp_);
}

writer::~writer()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (!installed_)
        ::unlink(tmp_.c_str());
}

void writer::begin_section(section_id id, std::uint32_t index)
{
    if (open_)
        throw ckpt_error("checkpoint writer: begin_section inside an open "
                         "section (sections cannot nest)");
    if (begun_ == table_.size())
        throw ckpt_error("checkpoint writer: more sections than the " +
                         std::to_string(table_.size()) + " declared");
    table_[begun_++] =
        section_entry{std::uint32_t(id), index, buffer_at_ + fill_, 0, 0, 0};
    open_ = true;
    crc_from_ = fill_;
}

void writer::end_section()
{
    if (!open_)
        throw ckpt_error("checkpoint writer: end_section without a section");
    fold_crc();
    const std::uint64_t end = buffer_at_ + fill_;
    table_[begun_ - 1].size = end - table_[begun_ - 1].offset;
    open_ = false;

    // Zero padding keeps the next payload 8-aligned. It always fits: the
    // buffer starts 8-aligned in the file (the reserved front is, and only
    // full buffers are flushed mid-stream) and its size is a multiple of 8.
    const std::size_t pad = std::size_t(align8(end) - end);
    std::memset(buffer_.get() + fill_, 0, pad);
    fill_ += pad;
}

void writer::put_spill(const void* data, std::size_t size)
{
    if (!open_)
        throw ckpt_error("checkpoint writer: put outside a section");
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (size > 0) {
        if (fill_ == k_buffer_bytes)
            flush();
        const std::size_t n = std::min(size, k_buffer_bytes - fill_);
        std::memcpy(buffer_.get() + fill_, p, n);
        fill_ += n;
        p += n;
        size -= n;
    }
}

void writer::fold_crc()
{
    section_entry& e = table_[begun_ - 1];
    e.crc = crc32(buffer_.get() + crc_from_, fill_ - crc_from_, e.crc);
    crc_from_ = fill_;
}

void writer::flush()
{
    if (open_)
        fold_crc();
    write_all(fd_, buffer_.get(), fill_, buffer_at_, tmp_);
    buffer_at_ += fill_;
    fill_ = 0;
    crc_from_ = 0;
}

void writer::put_double(double v)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v, "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(bits);
}

void writer::put_string(const std::string& s)
{
    put_u32(std::uint32_t(s.size()));
    put_bytes(s.data(), s.size());
}

void writer::finalize(std::uint64_t config_hash)
{
    if (open_)
        throw ckpt_error("checkpoint writer: finalize with an open section");
    if (begun_ != table_.size())
        throw ckpt_error("checkpoint writer: " + std::to_string(begun_) +
                         " sections written, " +
                         std::to_string(table_.size()) + " declared");
    flush();

    // The payloads already sit at the offsets the table records; the
    // header and table fill the room reserved in front of them.
    file_header header{};
    std::memcpy(header.magic, k_magic, sizeof k_magic);
    header.version = k_version;
    header.endian = k_endian_tag;
    header.section_count = std::uint32_t(table_.size());
    header.file_bytes = buffer_at_;
    header.config_hash = config_hash;
    header.header_crc = 0;
    header.header_crc = crc32(&header, sizeof header);
    write_all(fd_, &header, sizeof header, 0, tmp_);
    write_all(fd_, table_.data(), sizeof(section_entry) * table_.size(),
              sizeof header, tmp_);

    // fsync + rename + fsync(dir): the rename installs a fully durable
    // file or nothing. On any failure the destructor unlinks the tmp file.
    if (::fsync(fd_) != 0)
        io_fail("cannot fsync", tmp_);
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0)
        io_fail("cannot close", tmp_);
    if (::rename(tmp_.c_str(), path_.c_str()) != 0)
        io_fail("cannot rename into place", path_);
    installed_ = true;
    const int dir_fd = ::open(parent_dir(path_).c_str(),
                              O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
        ::fsync(dir_fd); // best effort: the rename itself already happened
        ::close(dir_fd);
    }
}

} // namespace lnuca::ckpt
