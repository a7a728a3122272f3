#include "src/exp/sink.h"

#include "src/common/log.h"
#include "src/common/table.h"
#include "src/exp/json.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

namespace lnuca::exp {

namespace {

// Full-precision double formatting: %.17g round-trips through strtod.
std::string fmt_double(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string csv_quote(const std::string& s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

std::string hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

template <class T> constexpr bool is_u64 =
    std::is_integral_v<T> && std::is_unsigned_v<T> && !std::is_same_v<T, bool>;

/// One value as flat text (see flat_column).
template <class T> std::string flat_text(const hier::field& d, const T& v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "1" : "0";
    } else if constexpr (is_u64<T>) {
        if (d.kind == hier::field_kind::hex64)
            return v == 0 ? "" : hex64(v);
        return std::to_string(v);
    } else if constexpr (std::is_same_v<T, double>) {
        return fmt_double(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_same_v<T, hier::run_status>) {
        return to_string(v);
    } else {
        std::string out;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0)
                out += ';';
            out += flat_text(d, v[i]);
        }
        return out;
    }
}

/// One value as JSON.
template <class T>
void put_json(std::string& out, const hier::field& d, const T& v)
{
    using hier::field_kind;
    if constexpr (std::is_same_v<T, bool>) {
        out += v ? "true" : "false";
    } else if constexpr (std::is_same_v<T, power::energy_breakdown>) {
        out += '{';
        hier::for_each_energy_part([&](const char* name, auto part) {
            out += '"';
            out += name;
            out += "\":" + fmt_double(v.*part) + ',';
        });
        out += "\"total_j\":" + fmt_double(v.total()) + '}';
    } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>> ||
                         std::is_same_v<T, std::vector<double>>) {
        out += '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0)
                out += ',';
            put_json(out, d, v[i]);
        }
        out += ']';
    } else if (d.kind == field_kind::text || d.kind == field_kind::status ||
               d.kind == field_kind::hex64) {
        // A hash is a string, not a JSON number: it would lose precision
        // in any double-backed JSON reader (Python's json included).
        out += '"' + json_escape(flat_text(d, v)) + '"';
    } else {
        out += flat_text(d, v);
    }
}

const char* sql_type(hier::field_kind kind)
{
    switch (kind) {
    case hier::field_kind::u64:
    case hier::field_kind::flag: return "INTEGER";
    case hier::field_kind::f64:
    case hier::field_kind::energy: return "REAL";
    default: return "TEXT"; // names, status, arrays, seeds (full 64-bit)
    }
}

} // namespace

// ---------------------------------------------------------------------------
// table_sink
// ---------------------------------------------------------------------------

void table_sink::consume(const job& j, const hier::run_result& r)
{
    std::string per_core = "-";
    if (r.cores > 1) {
        per_core.clear();
        for (std::size_t i = 0; i < r.per_core_ipc.size(); ++i) {
            if (i != 0)
                per_core += '/';
            per_core += text_table::num(r.per_core_ipc[i], 2);
        }
    }
    rows_.push_back({r.config_name, r.workload_name,
                     std::to_string(j.key.replicate), to_string(r.status),
                     std::to_string(r.cores), text_table::num(r.ipc, 3),
                     per_core,
                     r.weighted_speedup > 0.0
                         ? text_table::num(r.weighted_speedup, 2)
                         : "-",
                     // ASCII on purpose: text_table widths count bytes.
                     r.sampled ? "+-" + text_table::num(r.ipc_ci95, 3) + " (" +
                                     std::to_string(r.sampled_windows) + "w)"
                               : "measured",
                     std::to_string(r.cycles),
                     text_table::num(r.avg_load_latency, 1),
                     text_table::num(r.energy.total() * 1e3, 3),
                     text_table::num(r.host_seconds, 2),
                     text_table::num(r.sim_cycles_per_second * 1e-6, 2)});
}

void table_sink::finish()
{
    text_table t("Run log");
    t.set_header({"config", "workload", "rep", "status", "cores", "IPC",
                  "IPC/core",
                  "WS", "IPC est.", "cycles", "load lat.", "energy (mJ)",
                  "host s", "Mcyc/s"});
    for (auto& row : rows_)
        t.add_row(std::move(row));
    out_ << t.render();
    rows_.clear();
}

// ---------------------------------------------------------------------------
// csv_sink
// ---------------------------------------------------------------------------

std::vector<flat_column> flat_columns(const job& j, const hier::run_result& r)
{
    std::vector<flat_column> out;
    visit_row(j, r, [&](const hier::field& d, const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, power::energy_breakdown>) {
            const auto part = [&](const char* name, double value) {
                out.push_back({std::string(d.name) + '_' + name,
                               std::string(d.name) + '.' + name, d,
                               fmt_double(value)});
            };
            hier::for_each_energy_part(
                [&](const char* name, auto member) { part(name, v.*member); });
            part("total_j", v.total());
        } else {
            out.push_back({d.name, d.name, d, flat_text(d, v)});
        }
    });
    return out;
}

std::string store_schema()
{
    std::string out;
    for (const flat_column& c : flat_columns(job{}, hier::run_result{}))
        out += c.name + '\t' + sql_type(c.field.kind) + '\t' + c.json_path +
               '\n';
    return out;
}

void csv_sink::begin(std::size_t)
{
    const char* sep = "";
    for (const flat_column& c : flat_columns(job{}, hier::run_result{})) {
        out_ << sep << c.name;
        sep = ",";
    }
    out_ << '\n';
}

void csv_sink::consume(const job& j, const hier::run_result& r)
{
    const char* sep = "";
    for (const flat_column& c : flat_columns(j, r)) {
        out_ << sep << csv_quote(c.text);
        sep = ",";
    }
    out_ << '\n';
}

// ---------------------------------------------------------------------------
// jsonl_sink
// ---------------------------------------------------------------------------

std::string encode_json_line(const job& j, const hier::run_result& r)
{
    std::string line = "{";
    visit_row(j, r, [&](const hier::field& d, const auto& v) {
        // The two conditional keys: `manifest` only on manifest-driven
        // sweeps, `error` only on rows that did not finish ok.
        if constexpr (is_u64<std::decay_t<decltype(v)>>) {
            if (d.kind == hier::field_kind::hex64 && v == 0)
                return;
        } else if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                            std::string>) {
            if (&v == &r.error && r.status == hier::run_status::ok)
                return;
        }
        line += '"';
        line += d.name;
        line += "\":";
        put_json(line, d, v);
        line += ',';
    });
    line.back() = '}';
    return line;
}

std::string encode_deterministic_line(const job& j, hier::run_result r)
{
    hier::for_each_field([&](const hier::field& d, auto member) {
        if (!d.deterministic())
            r.*member = {};
    });
    return encode_json_line(j, r);
}

jsonl_sink::jsonl_sink(std::ostream& out, std::size_t flush_rows)
    : out_(&out), flush_rows_(flush_rows == 0 ? 1 : flush_rows)
{
}

jsonl_sink::jsonl_sink(const std::string& path, std::size_t flush_rows,
                       std::size_t fsync_rows)
    : flush_rows_(flush_rows == 0 ? 1 : flush_rows), fsync_rows_(fsync_rows)
{
    // O_APPEND: every flush is one atomically-positioned write of whole
    // lines, even when several shards append to the same file.
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
}

jsonl_sink::~jsonl_sink()
{
    // The destructor must not throw; normal shutdown goes through finish(),
    // which does, so losses are only ever swallowed on an abnormal exit.
    try {
        flush();
    } catch (const sink_error& e) {
        LNUCA_WARN("jsonl sink: ", e.what());
    }
    if (fd_ >= 0)
        ::close(fd_);
}

void jsonl_sink::begin(std::size_t job_count)
{
    // Pre-size for a full batch (a row is a few hundred bytes).
    buffer_.reserve(512 * std::min(flush_rows_, std::max(job_count,
                                                         std::size_t(1))));
}

void jsonl_sink::consume(const job& j, const hier::run_result& r)
{
    if (r.status == hier::run_status::skipped_resumed)
        return; // already durable in this file (see class comment)
    ++consumed_rows_;
    buffer_ += encode_json_line(j, r);
    buffer_ += '\n';
    ++rows_since_fsync_;
    if (++buffered_rows_ >= flush_rows_)
        flush();
}

void jsonl_sink::finish()
{
    flush();
    if (fd_ >= 0 && fsync_rows_ > 0 && rows_since_fsync_ > 0) {
        if (::fsync(fd_) != 0)
            throw sink_error("jsonl sink: final fsync failed after row " +
                             std::to_string(consumed_rows_) + ": " +
                             std::strerror(errno));
        rows_since_fsync_ = 0;
    }
}

void jsonl_sink::flush()
{
    if (!buffer_.empty()) {
        if (fd_ >= 0) {
            const char* p = buffer_.data();
            std::size_t left = buffer_.size();
            const std::size_t batch = buffered_rows_;
            while (left > 0) {
                const ssize_t n = ::write(fd_, p, left);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n <= 0) {
                    // Full disk / EIO / closed fd: the batch is lost either
                    // way, so clear it (the destructor's last flush must
                    // not re-throw) and report exactly which rows are gone
                    // instead of pretending they reached the file.
                    const int err = n < 0 ? errno : EIO;
                    const std::size_t first = consumed_rows_ - batch;
                    buffer_.clear();
                    buffered_rows_ = 0;
                    throw sink_error(
                        "jsonl sink: write failed at row " +
                        std::to_string(first) + " (" + std::to_string(batch) +
                        " buffered rows lost): " + std::strerror(err));
                }
                p += n;
                left -= std::size_t(n);
            }
        } else if (out_ != nullptr) {
            out_->write(buffer_.data(), std::streamsize(buffer_.size()));
        }
        buffer_.clear();
        buffered_rows_ = 0;
    }
    if (fd_ >= 0 && fsync_rows_ > 0 && rows_since_fsync_ >= fsync_rows_) {
        if (::fsync(fd_) != 0)
            throw sink_error("jsonl sink: fsync failed after row " +
                             std::to_string(consumed_rows_) + ": " +
                             std::strerror(errno));
        rows_since_fsync_ = 0;
    }
}

// ---------------------------------------------------------------------------
// decode_json_line: parse_json() (src/exp/json.h) reads the line and each
// member is matched to its field through visit_row(). Unknown keys are
// skipped so the format can grow fields without breaking old readers.
// ---------------------------------------------------------------------------

namespace {

std::optional<hier::run_status> run_status_from_string(const std::string& s)
{
    if (s == "ok")
        return hier::run_status::ok;
    if (s == "failed")
        return hier::run_status::failed;
    if (s == "timed_out")
        return hier::run_status::timed_out;
    if (s == "skipped_resumed")
        return hier::run_status::skipped_resumed;
    return std::nullopt;
}

bool as_double(const jvalue& v, double& out)
{
    if (v.k != jvalue::kind::number)
        return false;
    out = std::strtod(v.text.c_str(), nullptr);
    return true;
}

/// Read one value of field `d` into `out`; false when its JSON type or
/// text does not fit the field.
template <class T>
bool read_value(const jvalue& v, const hier::field& d, T& out)
{
    using kind = jvalue::kind;
    if constexpr (std::is_same_v<T, bool>) {
        out = v.boolean;
        return v.k == kind::bool_t;
    } else if constexpr (is_u64<T>) {
        std::uint64_t u = 0;
        if (d.kind == hier::field_kind::hex64) {
            if (v.k != kind::string || v.text.empty())
                return false;
            char* after = nullptr;
            u = std::strtoull(v.text.c_str(), &after, 16);
            if (after != v.text.c_str() + v.text.size())
                return false;
        } else if (!as_u64(v, u)) {
            return false;
        }
        out = T(u);
        return true;
    } else if constexpr (std::is_same_v<T, double>) {
        return as_double(v, out);
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = v.text;
        return v.k == kind::string;
    } else if constexpr (std::is_same_v<T, hier::run_status>) {
        const auto status =
            v.k == kind::string ? run_status_from_string(v.text) : std::nullopt;
        if (status)
            out = *status;
        return status.has_value(); // an unknown status is a malformed row
    } else if constexpr (std::is_same_v<T, power::energy_breakdown>) {
        if (v.k != kind::object)
            return false;
        bool ok = true;
        for (const auto& [key, part] : v.members) // total_j is not read
            hier::for_each_energy_part([&](const char* name, auto member) {
                if (key == name)
                    ok = ok && as_double(part, out.*member);
            });
        return ok;
    } else { // u64 / f64 array
        if (v.k != kind::array)
            return false;
        out.assign(v.items.size(), {});
        for (std::size_t i = 0; i < v.items.size(); ++i)
            if (!read_value(v.items[i], d, out[i]))
                return false;
        return true;
    }
}

} // namespace

std::optional<decoded_run> decode_json_line(const std::string& line)
{
    jvalue root;
    if (!parse_json(line, root, nullptr) || root.k != jvalue::kind::object)
        return std::nullopt;
    job ids; // coordinates as visit_row sees them; absent keys read as 0
    ids.seed = ids.instructions = ids.warmup = 0;
    decoded_run out;
    for (const auto& [key, value] : root.members) {
        bool ok = true;
        visit_row(ids, out.result, [&](const hier::field& d, auto& v) {
            if (key == d.name)
                ok = read_value(value, d, v);
        });
        if (!ok)
            return std::nullopt;
    }
    out.key = ids.key;
    out.seed = ids.seed;
    out.instructions_requested = ids.instructions;
    out.warmup = ids.warmup;
    out.manifest_hash = ids.manifest_hash;
    return out;
}

} // namespace lnuca::exp
