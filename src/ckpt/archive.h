// Archive adapters over ckpt::writer / ckpt::reader. Components expose one
//
//     template <class Ar> void serialize(Ar& ar) { ar(a_); ar(b_); ... }
//
// member that both saves (Ar = ckpt::saver) and loads (Ar = ckpt::loader)
// from the same field list, so the two directions cannot drift apart. It is
// a component's only persistence hook: hier::system opens the component's
// section and calls `ar(component)` inside it, after checking quiescence on
// save. The template binds at instantiation, which also keeps component
// headers free of any ckpt dependency.
#pragma once

#include "src/ckpt/reader.h"
#include "src/ckpt/writer.h"
#include "src/common/stats.h"

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace lnuca::ckpt {

/// Element types whose vectors travel as one byte run. Each put_uN /
/// put_double writes the value's native bytes, so one run of the vector's
/// storage is the same bytes as its elements written one by one (and the
/// header's endian tag already ties the file to the host's byte order).
template <class T>
inline constexpr bool is_bulk_v =
    std::is_same_v<T, std::uint8_t> || std::is_same_v<T, std::uint16_t> ||
    std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t> ||
    std::is_same_v<T, double>;

class saver {
public:
    static constexpr bool is_loading = false;

    explicit saver(writer& w) : w_(w) {}

    void operator()(std::uint8_t v) { w_.put_u8(v); }
    void operator()(std::uint16_t v) { w_.put_u16(v); }
    void operator()(std::uint32_t v) { w_.put_u32(v); }
    void operator()(std::uint64_t v) { w_.put_u64(v); }
    void operator()(bool v) { w_.put_bool(v); }
    void operator()(double v) { w_.put_double(v); }
    void operator()(const std::string& v) { w_.put_string(v); }

    template <class Enum,
              std::enable_if_t<std::is_enum_v<Enum>, int> = 0>
    void operator()(Enum v)
    {
        w_.put_u64(std::uint64_t(v));
    }

    template <class T> void operator()(const std::vector<T>& v)
    {
        w_.put_u64(v.size());
        if constexpr (is_bulk_v<T>)
            w_.put_bytes(v.data(), v.size() * sizeof(T));
        else
            for (const T& item : v)
                (*this)(item);
    }

    /// Nested objects with their own serialize member.
    template <class T,
              std::enable_if_t<std::is_class_v<T> &&
                                   !std::is_same_v<T, std::string>,
                               int> = 0>
    void operator()(const T& v)
    {
        const_cast<T&>(v).serialize(*this);
    }

    /// Counters are saved as (name, value) pairs and restored by name, so
    /// reordering or adding counters does not invalidate old checkpoints
    /// within a format version.
    void counters(const counter_set& c)
    {
        w_.put_u64(c.items().size());
        for (const auto& [name, value] : c.items()) {
            w_.put_string(name);
            w_.put_u64(value);
        }
    }

private:
    writer& w_;
};

class loader {
public:
    static constexpr bool is_loading = true;

    explicit loader(reader& r) : r_(r) {}

    void operator()(std::uint8_t& v) { v = r_.get_u8(); }
    void operator()(std::uint16_t& v) { v = r_.get_u16(); }
    void operator()(std::uint32_t& v) { v = r_.get_u32(); }
    void operator()(std::uint64_t& v) { v = r_.get_u64(); }
    void operator()(bool& v) { v = r_.get_bool(); }
    void operator()(double& v) { v = r_.get_double(); }
    void operator()(std::string& v) { v = r_.get_string(); }

    template <class Enum,
              std::enable_if_t<std::is_enum_v<Enum>, int> = 0>
    void operator()(Enum& v)
    {
        v = Enum(r_.get_u64());
    }

    template <class T> void operator()(std::vector<T>& v)
    {
        v.resize(std::size_t(r_.get_u64()));
        if constexpr (is_bulk_v<T>)
            r_.get_bytes(v.data(), v.size() * sizeof(T));
        else
            for (T& item : v)
                (*this)(item);
    }

    template <class T,
              std::enable_if_t<std::is_class_v<T> &&
                                   !std::is_same_v<T, std::string>,
                               int> = 0>
    void operator()(T& v)
    {
        v.serialize(*this);
    }

    void counters(counter_set& c)
    {
        const std::uint64_t n = r_.get_u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::string name = r_.get_string();
            const std::uint64_t value = r_.get_u64();
            c.set(name, value);
        }
    }

private:
    reader& r_;
};

} // namespace lnuca::ckpt
