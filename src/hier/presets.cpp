#include "src/hier/presets.h"

#include "src/common/types.h"

#include <algorithm>
#include <cctype>
#include <vector>

namespace lnuca::hier {

namespace {

mem::cache_config l1_write_through()
{
    mem::cache_config c;
    c.name = "L1";
    c.size_bytes = 32_KiB;
    c.ways = 4;
    c.block_bytes = 32;
    c.completion_latency = 2;
    c.initiation_interval = 1;
    c.ports = 2;
    c.write_through = true;
    c.mshr_entries = 16;
    c.mshr_secondary = 4;
    c.write_buffer_entries = 32;
    c.level_tag = mem::service_level::l1;
    return c;
}

mem::cache_config r_tile()
{
    // The r-tile keeps the L1's geometry and timing but participates in the
    // fabric's exclusive victim flow: copy-back, no allocation on store
    // misses (they leave towards the L3, Fig. 2(c)), and every victim -
    // clean or dirty - enters the replacement network.
    mem::cache_config c = l1_write_through();
    c.name = "r-tile";
    c.write_through = false;
    c.write_allocate = false;
    c.writeback_clean = true;
    return c;
}

mem::cache_config l2_cache()
{
    mem::cache_config c;
    c.name = "L2";
    c.size_bytes = 256_KiB;
    c.ways = 8;
    c.block_bytes = 64;
    c.completion_latency = 4;
    c.initiation_interval = 2;
    c.ports = 1;
    c.write_through = false;
    c.serial_access = true;
    c.mshr_entries = 16;
    c.mshr_secondary = 4;
    c.write_buffer_entries = 32;
    c.level_tag = mem::service_level::l2;
    return c;
}

mem::cache_config l3_cache()
{
    mem::cache_config c;
    c.name = "L3";
    c.size_bytes = 8_MiB;
    c.ways = 16;
    c.block_bytes = 128;
    c.completion_latency = 20;
    c.initiation_interval = 15; // per bank (serial low-power arrays)
    c.ports = 1;
    c.banks = 4; // Core 2-class LLCs are line-interleaved across banks
    c.write_through = false;
    c.mshr_entries = 8;
    c.mshr_secondary = 4;
    c.write_buffer_entries = 32;
    c.level_tag = mem::service_level::l3;
    return c;
}

system_config common_base()
{
    system_config s;
    s.core = cpu::core_config{};
    s.l1 = l1_write_through();
    s.l2 = l2_cache();
    s.l3 = l3_cache();
    s.memory = mem::main_memory_config{};
    return s;
}

} // namespace

namespace presets {

system_config l2_256kb()
{
    system_config s = common_base();
    s.name = "L2-256KB";
    s.kind = hierarchy_kind::conventional;
    return s;
}

system_config lnuca_l3(unsigned levels)
{
    system_config s = common_base();
    s.name = lnuca_config_name(levels);
    s.kind = hierarchy_kind::lnuca_l3;
    s.l1 = r_tile();
    s.fabric.levels = levels;
    return s;
}

system_config dnuca_4x8()
{
    system_config s = common_base();
    s.name = "DN-4x8";
    s.kind = hierarchy_kind::dnuca;
    return s;
}

system_config lnuca_dnuca(unsigned levels)
{
    system_config s = common_base();
    s.name = "LN" + std::to_string(levels) + " + DN-4x8";
    s.kind = hierarchy_kind::lnuca_dnuca;
    s.l1 = r_tile();
    s.fabric.levels = levels;
    return s;
}

system_config cmp(const system_config& base, unsigned cores)
{
    system_config s = base;
    s.cores = cores;
    s.name = base.name + "-" + std::to_string(cores) + "c";

    // The coherent private-L1 settings and the hub's core count and block
    // size are system::build's to normalise for every cores > 1 build;
    // the preset only picks the transport latencies.
    coh::coherence_config& c = s.coherence;
    switch (s.kind) {
    case hierarchy_kind::conventional:
        // Coherence messages cross the same narrow shared bus the L2
        // refills ride (two arbitration cycles each way; a forwarded line
        // streams over 16B wires).
        c.request_latency = 2;
        c.response_latency = 2;
        c.snoop_latency = 2;
        c.c2c_latency = 8;
        c.forward_clean_victims = false;
        break;
    case hierarchy_kind::lnuca_l3:
    case hierarchy_kind::lnuca_dnuca:
        // Abutted message-wide links: one hop in, one hop out. Clean
        // victims keep feeding the fabric - evictions are its fill path.
        c.request_latency = 1;
        c.response_latency = 1;
        c.snoop_latency = 2;
        c.c2c_latency = 4;
        c.forward_clean_victims = true;
        break;
    case hierarchy_kind::dnuca:
        // Mesh entry/exit plus a couple of switch traversals.
        c.request_latency = 2;
        c.response_latency = 2;
        c.snoop_latency = 2;
        c.c2c_latency = 6;
        c.forward_clean_victims = false;
        break;
    }
    return s;
}

std::optional<system_config> by_name(const std::string& name)
{
    std::string n;
    n.reserve(name.size());
    for (const char ch : name)
        if (ch != ' ')
            n += char(std::tolower(static_cast<unsigned char>(ch)));
    if (n == "l2" || n == "l2-256kb")
        return l2_256kb();
    if (n == "dnuca" || n == "dn-4x8")
        return dnuca_4x8();
    for (unsigned levels = 2; levels <= 4; ++levels) {
        const std::string ln = "ln" + std::to_string(levels);
        std::string full = lnuca_config_name(levels);
        for (char& ch : full)
            ch = char(std::tolower(static_cast<unsigned char>(ch)));
        if (n == ln || n == full)
            return lnuca_l3(levels);
        if (n == ln + "+dn" || n == ln + "+dn-4x8")
            return lnuca_dnuca(levels);
    }
    return std::nullopt;
}

} // namespace presets

namespace {

bool override_cache(mem::cache_config& c, const std::string& field,
                    std::uint64_t v)
{
    if (field == "size_kb")
        c.size_bytes = v * 1024;
    else if (field == "ways")
        c.ways = std::uint32_t(v);
    else if (field == "block_bytes")
        c.block_bytes = std::uint32_t(v);
    else if (field == "completion_latency")
        c.completion_latency = std::uint32_t(v);
    else if (field == "initiation_interval")
        c.initiation_interval = std::uint32_t(v);
    else if (field == "ports")
        c.ports = std::uint32_t(v);
    else if (field == "banks")
        c.banks = std::uint32_t(v);
    else if (field == "mshr_entries")
        c.mshr_entries = std::uint32_t(v);
    else if (field == "mshr_secondary")
        c.mshr_secondary = std::uint32_t(v);
    else if (field == "write_buffer_entries")
        c.write_buffer_entries = std::uint32_t(v);
    else
        return false;
    return true;
}

bool override_core(cpu::core_config& c, const std::string& field,
                   std::uint64_t v)
{
    if (field == "fetch_width")
        c.fetch_width = unsigned(v);
    else if (field == "dispatch_width")
        c.dispatch_width = unsigned(v);
    else if (field == "commit_width")
        c.commit_width = unsigned(v);
    else if (field == "rob_size")
        c.rob_size = unsigned(v);
    else if (field == "lsq_size")
        c.lsq_size = unsigned(v);
    else if (field == "store_buffer_size")
        c.store_buffer_size = unsigned(v);
    else if (field == "mispredict_penalty")
        c.mispredict_penalty = unsigned(v);
    else if (field == "tlb_entries")
        c.tlb_entries = unsigned(v);
    else
        return false;
    return true;
}

bool override_fabric(fabric::fabric_config& c, const std::string& field,
                     std::uint64_t v)
{
    if (field == "levels")
        c.levels = unsigned(v);
    else if (field == "mshr_entries")
        c.mshr_entries = std::uint32_t(v);
    else if (field == "inject_queue_depth")
        c.inject_queue_depth = std::uint32_t(v);
    else if (field == "evict_queue_depth")
        c.evict_queue_depth = std::uint32_t(v);
    else if (field == "exit_queue_depth")
        c.exit_queue_depth = std::uint32_t(v);
    else
        return false;
    return true;
}

bool override_dnuca(dnuca::dnuca_config& c, const std::string& field,
                    std::uint64_t v)
{
    if (field == "bank_sets")
        c.bank_sets = unsigned(v);
    else if (field == "rows")
        c.rows = unsigned(v);
    else if (field == "bank_kb")
        c.bank_bytes = v * 1024;
    else if (field == "bank_ways")
        c.bank_ways = std::uint32_t(v);
    else if (field == "bank_latency")
        c.bank_latency = std::uint32_t(v);
    else
        return false;
    return true;
}

bool override_memory(mem::main_memory_config& c, const std::string& field,
                     std::uint64_t v)
{
    if (field == "first_chunk_latency")
        c.first_chunk_latency = std::uint32_t(v);
    else if (field == "inter_chunk_latency")
        c.inter_chunk_latency = std::uint32_t(v);
    else if (field == "queue_depth")
        c.queue_depth = std::uint32_t(v);
    else
        return false;
    return true;
}

bool override_bus(mem::bus_config& c, const std::string& field,
                  std::uint64_t v)
{
    if (field == "width_bytes")
        c.width_bytes = std::uint32_t(v);
    else if (field == "arbitration")
        c.arbitration = std::uint32_t(v);
    else if (field == "response_bytes")
        c.response_bytes = std::uint32_t(v);
    else
        return false;
    return true;
}

/// Fields whose zero crashes the simulator, throws inside the job or
/// stalls it until the cycle ceiling. Zero stays legal wherever it means
/// something: latencies, cache banks, mshr_secondary, fabric exit queue,
/// bus arbitration and response size. Cache fields hold for l1, l2 and l3.
bool zero_is_invalid(const std::string& group, const std::string& field)
{
    static const std::vector<std::string> keys = {
        "cache.size_kb", "cache.ways", "cache.block_bytes", "cache.ports",
        "cache.mshr_entries", "cache.write_buffer_entries",
        "core.fetch_width", "core.dispatch_width", "core.commit_width",
        "core.rob_size", "core.lsq_size", "core.store_buffer_size",
        "core.tlb_entries", "fabric.levels", "fabric.mshr_entries",
        "fabric.inject_queue_depth", "fabric.evict_queue_depth",
        "dnuca.bank_sets", "dnuca.rows", "dnuca.bank_kb", "dnuca.bank_ways",
        "memory.queue_depth", "bus.width_bytes"};
    const bool cache = group == "l1" || group == "l2" || group == "l3";
    const std::string family = (cache ? "cache" : group) + "." + field;
    return std::find(keys.begin(), keys.end(), family) != keys.end();
}

} // namespace

bool apply_config_override(system_config& config, const std::string& key,
                           std::uint64_t value, std::string* error)
{
    const std::size_t dot = key.find('.');
    bool ok = false;
    if (dot != std::string::npos && dot != 0 && dot + 1 < key.size()) {
        const std::string group = key.substr(0, dot);
        const std::string field = key.substr(dot + 1);
        if (group == "l1")
            ok = override_cache(config.l1, field, value);
        else if (group == "l2")
            ok = override_cache(config.l2, field, value);
        else if (group == "l3")
            ok = override_cache(config.l3, field, value);
        else if (group == "core")
            ok = override_core(config.core, field, value);
        else if (group == "fabric")
            ok = override_fabric(config.fabric, field, value);
        else if (group == "dnuca")
            ok = override_dnuca(config.dnuca, field, value);
        else if (group == "memory")
            ok = override_memory(config.memory, field, value);
        else if (group == "bus")
            ok = override_bus(config.l1_l2_bus, field, value);
        if (ok && value == 0 && zero_is_invalid(group, field)) {
            if (error != nullptr)
                *error = "system_config override '" + key +
                         "' must be positive";
            return false;
        }
    }
    if (!ok && error != nullptr)
        *error = "unknown system_config override key '" + key + "'";
    return ok;
}

std::optional<sampling_config> parse_sampling_spec(const std::string& spec)
{
    if (spec == "off")
        return sampling_config{};
    const std::string prefix = "periodic:";
    if (spec.rfind(prefix, 0) != 0)
        return std::nullopt;
    std::vector<std::uint64_t> fields;
    std::size_t pos = prefix.size();
    while (pos <= spec.size()) {
        const std::size_t sep = spec.find(':', pos);
        const std::string field =
            spec.substr(pos, sep == std::string::npos ? sep : sep - pos);
        if (field.empty())
            return std::nullopt;
        // Digits only: stoull would silently wrap "-6000" and accept "+5".
        for (const char ch : field)
            if (ch < '0' || ch > '9')
                return std::nullopt;
        try {
            std::size_t used = 0;
            fields.push_back(std::stoull(field, &used));
            if (used != field.size())
                return std::nullopt;
        } catch (...) {
            return std::nullopt;
        }
        if (sep == std::string::npos)
            break;
        pos = sep + 1;
    }
    if (fields.size() < 2 || fields.size() > 3)
        return std::nullopt;
    sampling_config sc;
    sc.enabled = true;
    sc.detail_instructions = fields[0];
    sc.period_instructions = fields[1];
    sc.detail_warmup = fields.size() == 3 ? fields[2] : fields[0] / 2;
    if (sc.detail_instructions == 0 || sc.period_instructions == 0)
        return std::nullopt;
    return sc;
}

std::string lnuca_config_name(unsigned levels)
{
    const fabric::geometry geo(levels);
    const std::uint64_t kb = (32_KiB + geo.tile_count() * 8_KiB) / 1024;
    return "LN" + std::to_string(levels) + "-" + std::to_string(kb) + "KB";
}

} // namespace lnuca::hier
