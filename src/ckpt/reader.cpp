#include "src/ckpt/reader.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace lnuca::ckpt {

namespace {

[[noreturn]] void reject(const std::string& path, const std::string& why)
{
    throw ckpt_error("checkpoint '" + path + "': " + why);
}

} // namespace

reader::reader(const std::string& path) : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        reject(path, std::string("cannot open: ") + std::strerror(errno));

    struct stat st {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        reject(path, std::string("cannot stat: ") + std::strerror(err));
    }
    data_.resize(std::size_t(st.st_size));
    std::size_t got = 0;
    while (got < data_.size()) {
        const ssize_t n =
            ::read(fd, data_.data() + got, data_.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            const int err = errno;
            ::close(fd);
            reject(path, std::string("short read: ") +
                             (n < 0 ? std::strerror(err) : "unexpected EOF"));
        }
        got += std::size_t(n);
    }
    ::close(fd);

    if (data_.size() < sizeof(file_header))
        reject(path, "truncated: smaller than the 64-byte header");
    std::memcpy(&header_, data_.data(), sizeof header_);

    if (std::memcmp(header_.magic, k_magic, sizeof k_magic) != 0)
        reject(path, "bad magic (not an LNCKPT file)");
    if (header_.endian != k_endian_tag)
        reject(path, "endian mismatch (written on a different-endian host)");
    if (header_.version != k_version)
        reject(path, "format version " + std::to_string(header_.version) +
                         " (this build reads version " +
                         std::to_string(k_version) + ")");

    file_header unsigned_header = header_;
    unsigned_header.header_crc = 0;
    if (crc32(&unsigned_header, sizeof unsigned_header) != header_.header_crc)
        reject(path, "header CRC mismatch (corrupt header)");
    if (header_.file_bytes != data_.size())
        reject(path, "truncated: header records " +
                         std::to_string(header_.file_bytes) + " bytes, file has " +
                         std::to_string(data_.size()));

    const std::size_t table_bytes =
        sizeof(section_entry) * std::size_t(header_.section_count);
    if (sizeof(file_header) + table_bytes > data_.size())
        reject(path, "truncated: section table extends past end of file");
    entries_.resize(header_.section_count);
    std::memcpy(entries_.data(), data_.data() + sizeof(file_header),
                table_bytes);

    for (const section_entry& e : entries_) {
        if (e.offset + e.size < e.offset || e.offset + e.size > data_.size())
            reject(path, std::string("section '") +
                             to_string(section_id(e.id)) +
                             "' extends past end of file");
        if (crc32(data_.data() + e.offset, std::size_t(e.size)) != e.crc)
            reject(path, std::string("section '") +
                             to_string(section_id(e.id)) + "' index " +
                             std::to_string(e.index) +
                             " CRC mismatch (corrupt payload)");
    }
}

const section_entry* reader::find(section_id id, std::uint32_t index) const
{
    for (const section_entry& e : entries_)
        if (e.id == std::uint32_t(id) && e.index == index)
            return &e;
    return nullptr;
}

bool reader::has_section(section_id id, std::uint32_t index) const
{
    return find(id, index) != nullptr;
}

void reader::open_section(section_id id, std::uint32_t index)
{
    if (open_)
        reject(path_, "open_section while another section is open");
    const section_entry* e = find(id, index);
    if (e == nullptr)
        reject(path_, std::string("missing section '") + to_string(id) +
                          "' index " + std::to_string(index) +
                          " (config/topology mismatch)");
    open_ = true;
    current_ = e;
    cursor_ = std::size_t(e->offset);
    limit_ = std::size_t(e->offset + e->size);
}

void reader::close_section()
{
    if (!open_)
        reject(path_, "close_section without an open section");
    if (cursor_ != limit_)
        reject(path_, std::string("section '") +
                          to_string(section_id(current_->id)) + "' index " +
                          std::to_string(current_->index) + ": " +
                          std::to_string(limit_ - cursor_) +
                          " unread bytes (reader/writer drift)");
    open_ = false;
    current_ = nullptr;
}

void reader::get_bytes(void* out, std::size_t size)
{
    if (!open_)
        reject(path_, "read outside a section");
    if (size > limit_ - cursor_)
        reject(path_, std::string("section '") +
                          to_string(section_id(current_->id)) +
                          "' underruns: read past payload end");
    if (size != 0) // `out` may be null for an empty vector
        std::memcpy(out, data_.data() + cursor_, size);
    cursor_ += size;
}

std::uint8_t reader::get_u8()
{
    std::uint8_t v;
    get_bytes(&v, 1);
    return v;
}

std::uint16_t reader::get_u16()
{
    std::uint16_t v;
    get_bytes(&v, 2);
    return v;
}

std::uint32_t reader::get_u32()
{
    std::uint32_t v;
    get_bytes(&v, 4);
    return v;
}

std::uint64_t reader::get_u64()
{
    std::uint64_t v;
    get_bytes(&v, 8);
    return v;
}

double reader::get_double()
{
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string reader::get_string()
{
    const std::uint32_t n = get_u32();
    std::string s(n, '\0');
    get_bytes(s.data(), n);
    return s;
}

} // namespace lnuca::ckpt
