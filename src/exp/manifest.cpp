#include "src/exp/manifest.h"

#include "src/exp/json.h"
#include "src/trace/workload_spec.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

namespace lnuca::exp {

namespace {

// ---------------------------------------------------------------------------
// Canonical hashing: FNV-1a 64 over the canonical serialisation.
// ---------------------------------------------------------------------------

constexpr std::uint64_t fnv_offset = 14695981039346656037ull;
constexpr std::uint64_t fnv_prime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= fnv_prime;
    }
    return h;
}

// Axis entries after validation, before expansion.
struct sampling_entry {
    hier::sampling_config config;
    std::string canon; ///< "off" | "periodic:<detail>:<period>:<warmup>"
};

using override_set = std::map<std::string, std::uint64_t>; // sorted keys

std::string canon_override_set(const override_set& set)
{
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : set) {
        if (!first)
            out += ';';
        first = false;
        out += key;
        out += '=';
        out += std::to_string(value);
    }
    out += '}';
    return out;
}

bool set_error(std::string* error, std::string text)
{
    if (error != nullptr)
        *error = std::move(text);
    return false;
}

} // namespace

sweep manifest::to_sweep() const
{
    sweep s;
    s.add_configs(configs)
        .add_workloads(workloads)
        .replicates(replicates)
        .instructions(instructions)
        .warmup(warmup)
        .base_seed(base_seed)
        .manifest_hash(hash);
    return s;
}

std::optional<manifest> parse_manifest(const std::string& json_text,
                                       std::string* error)
{
    jvalue root;
    if (std::string json_error; !parse_json(json_text, root, &json_error)) {
        set_error(error, json_error);
        return std::nullopt;
    }
    if (root.k != jvalue::kind::object) {
        set_error(error, "manifest must be a JSON object");
        return std::nullopt;
    }

    // --- Collect raw fields, rejecting unknown and duplicate keys. --------
    std::map<std::string, const jvalue*> fields;
    static const char* const known[] = {
        "schema",   "name",       "presets",    "cores",
        "engine",   "sampling",   "overrides",  "workloads",
        "replicates", "base_seed", "instructions", "warmup",
    };
    for (const auto& [key, value] : root.members) {
        if (std::find_if(std::begin(known), std::end(known),
                         [&](const char* k) { return key == k; }) ==
            std::end(known)) {
            set_error(error, "unknown manifest key '" + key + "'");
            return std::nullopt;
        }
        if (!fields.emplace(key, &value).second) {
            set_error(error, "duplicate manifest key '" + key + "'");
            return std::nullopt;
        }
    }
    const auto field = [&](const char* key) -> const jvalue* {
        const auto it = fields.find(key);
        return it == fields.end() ? nullptr : it->second;
    };

    // --- schema (required, exact) -----------------------------------------
    const jvalue* schema = field("schema");
    if (schema == nullptr || schema->k != jvalue::kind::string) {
        set_error(error, "manifest is missing the \"schema\" string");
        return std::nullopt;
    }
    if (schema->text != manifest_schema) {
        set_error(error, "unsupported manifest schema '" + schema->text +
                             "' (this build reads '" +
                             std::string(manifest_schema) + "')");
        return std::nullopt;
    }

    manifest m;
    if (const jvalue* name = field("name")) {
        if (name->k != jvalue::kind::string) {
            set_error(error, "manifest \"name\" must be a string");
            return std::nullopt;
        }
        m.name = name->text;
    }

    // --- presets (required) -----------------------------------------------
    std::vector<hier::system_config> bases;
    const jvalue* presets = field("presets");
    if (presets == nullptr || presets->k != jvalue::kind::array ||
        presets->items.empty()) {
        set_error(error, "manifest \"presets\" must be a non-empty array of "
                         "preset names");
        return std::nullopt;
    }
    for (const jvalue& entry : presets->items) {
        if (entry.k != jvalue::kind::string) {
            set_error(error, "manifest \"presets\" entries must be strings");
            return std::nullopt;
        }
        auto config = hier::presets::by_name(entry.text);
        if (!config) {
            set_error(error, "unknown preset '" + entry.text + "'");
            return std::nullopt;
        }
        bases.push_back(std::move(*config));
    }

    // --- cores (optional, default [1]) ------------------------------------
    std::vector<unsigned> cores{1};
    if (const jvalue* axis = field("cores")) {
        if (axis->k != jvalue::kind::array || axis->items.empty()) {
            set_error(error, "manifest \"cores\" must be a non-empty array "
                             "of core counts");
            return std::nullopt;
        }
        cores.clear();
        for (const jvalue& entry : axis->items) {
            std::uint64_t value = 0;
            if (!as_u64(entry, value) || value < 1 || value > 32) {
                set_error(error, "manifest \"cores\" entries must be "
                                 "integers in [1, 32]");
                return std::nullopt;
            }
            cores.push_back(unsigned(value));
        }
    }

    // --- engine (optional, default ["skip"]) ------------------------------
    std::vector<sim::schedule_mode> engines{sim::schedule_mode::idle_skip};
    if (const jvalue* axis = field("engine")) {
        if (axis->k != jvalue::kind::array || axis->items.empty()) {
            set_error(error, "manifest \"engine\" must be a non-empty array "
                             "of engine modes");
            return std::nullopt;
        }
        engines.clear();
        for (const jvalue& entry : axis->items) {
            const auto mode = entry.k == jvalue::kind::string
                                  ? sim::parse_schedule_mode(entry.text)
                                  : std::nullopt;
            if (!mode) {
                set_error(error, "manifest \"engine\" entries must be "
                                 "\"dense\", \"skip\" or \"paranoid\"");
                return std::nullopt;
            }
            engines.push_back(*mode);
        }
    }

    // --- sampling (optional, default ["off"]) -----------------------------
    std::vector<sampling_entry> samplings{{hier::sampling_config{}, "off"}};
    if (const jvalue* axis = field("sampling")) {
        if (axis->k != jvalue::kind::array || axis->items.empty()) {
            set_error(error, "manifest \"sampling\" must be a non-empty "
                             "array of sampling specs");
            return std::nullopt;
        }
        samplings.clear();
        for (const jvalue& entry : axis->items) {
            std::optional<hier::sampling_config> parsed;
            if (entry.k == jvalue::kind::string)
                parsed = hier::parse_sampling_spec(entry.text);
            if (!parsed) {
                set_error(error,
                          "manifest \"sampling\" entries must be \"off\" or "
                          "\"periodic:<detail>:<period>[:<warmup>]\"");
                return std::nullopt;
            }
            sampling_entry s;
            s.config = *parsed;
            if (!s.config.enabled) {
                s.canon = "off";
            } else {
                char buf[96];
                std::snprintf(buf, sizeof buf,
                              "periodic:%llu:%llu:%llu",
                              (unsigned long long)s.config.detail_instructions,
                              (unsigned long long)s.config.period_instructions,
                              (unsigned long long)s.config.detail_warmup);
                s.canon = buf;
            }
            samplings.push_back(std::move(s));
        }
    }

    // --- overrides (optional, default [{}]) -------------------------------
    std::vector<override_set> overrides{override_set{}};
    if (const jvalue* axis = field("overrides")) {
        if (axis->k != jvalue::kind::array || axis->items.empty()) {
            set_error(error, "manifest \"overrides\" must be a non-empty "
                             "array of {\"dotted.key\": value} objects");
            return std::nullopt;
        }
        overrides.clear();
        for (const jvalue& entry : axis->items) {
            if (entry.k != jvalue::kind::object) {
                set_error(error, "manifest \"overrides\" entries must be "
                                 "objects");
                return std::nullopt;
            }
            override_set set;
            for (const auto& [key, value] : entry.members) {
                std::uint64_t v = 0;
                if (!as_u64(value, v)) {
                    set_error(error, "override '" + key +
                                         "' must be a non-negative integer");
                    return std::nullopt;
                }
                if (!set.emplace(key, v).second) {
                    set_error(error,
                              "duplicate override key '" + key + "'");
                    return std::nullopt;
                }
            }
            overrides.push_back(std::move(set));
        }
    }

    // --- workloads (required) ---------------------------------------------
    std::vector<std::string> workload_specs;
    const jvalue* workloads = field("workloads");
    if (workloads == nullptr || workloads->k != jvalue::kind::array ||
        workloads->items.empty()) {
        set_error(error, "manifest \"workloads\" must be a non-empty array "
                         "of workload specs");
        return std::nullopt;
    }
    for (const jvalue& entry : workloads->items) {
        if (entry.k != jvalue::kind::string) {
            set_error(error, "manifest \"workloads\" entries must be "
                             "strings");
            return std::nullopt;
        }
        auto profile = trace::parse_workload_spec(entry.text);
        if (!profile) {
            set_error(error, "unknown workload spec '" + entry.text +
                                 "' (expected a SPEC proxy name, "
                                 "trace:<file>, or scenario:<name>)");
            return std::nullopt;
        }
        workload_specs.push_back(entry.text);
        m.workloads.push_back(std::move(*profile));
    }

    // --- scalars ----------------------------------------------------------
    const auto scalar = [&](const char* key, std::uint64_t& out) {
        const jvalue* v = field(key);
        if (v == nullptr)
            return true;
        if (!as_u64(*v, out)) {
            set_error(error, std::string("manifest \"") + key +
                                 "\" must be a non-negative integer");
            return false;
        }
        return true;
    };
    std::uint64_t replicates = 1;
    if (!scalar("replicates", replicates))
        return std::nullopt;
    if (replicates == 0) {
        set_error(error, "manifest \"replicates\" must be >= 1");
        return std::nullopt;
    }
    m.replicates = std::size_t(replicates);
    if (!scalar("base_seed", m.base_seed) ||
        !scalar("instructions", m.instructions) ||
        !scalar("warmup", m.warmup))
        return std::nullopt;

    // --- Expand the config axis: preset x cores x engine x sampling x
    // override-set, preset-major. -----------------------------------------
    for (const hier::system_config& base : bases)
        for (unsigned core_count : cores) {
            hier::system_config with_cores =
                core_count == 1 ? base : hier::presets::cmp(base, core_count);
            for (const sim::schedule_mode engine : engines) {
                hier::system_config with_engine = with_cores;
                with_engine.engine_mode = engine;
                if (engine != sim::schedule_mode::idle_skip)
                    with_engine.name +=
                        std::string("+") + sim::to_string(engine);
                for (const sampling_entry& sampling : samplings) {
                    hier::system_config with_sampling = with_engine;
                    with_sampling.sampling = sampling.config;
                    if (sampling.canon != "off")
                        with_sampling.name += "+" + sampling.canon;
                    for (const override_set& set : overrides) {
                        hier::system_config config = with_sampling;
                        for (const auto& [key, value] : set) {
                            std::string override_error;
                            if (!hier::apply_config_override(
                                    config, key, value, &override_error)) {
                                set_error(error, override_error);
                                return std::nullopt;
                            }
                            config.name +=
                                "+" + key + "=" + std::to_string(value);
                        }
                        m.configs.push_back(std::move(config));
                    }
                }
            }
        }

    // --- cores == 1 partner per config (weighted-speedup baselines). ------
    {
        std::optional<std::size_t> one;
        for (std::size_t i = 0; i < cores.size(); ++i)
            if (cores[i] == 1)
                one = i;
        const std::size_t per_core =
            engines.size() * samplings.size() * overrides.size();
        const std::size_t per_preset = cores.size() * per_core;
        m.baseline_config.resize(m.configs.size());
        for (std::size_t i = 0; i < m.configs.size(); ++i) {
            if (!one)
                continue;
            const std::size_t preset = i / per_preset;
            const std::size_t tail = i % per_core;
            m.baseline_config[i] =
                preset * per_preset + *one * per_core + tail;
        }
    }

    // --- Canonical serialisation -> content hash. -------------------------
    std::string canon = std::string(manifest_schema) + "\n";
    canon += "name=" + m.name + "\n";
    canon += "presets=";
    for (std::size_t i = 0; i < bases.size(); ++i)
        canon += (i != 0 ? "," : "") + bases[i].name;
    canon += "\ncores=";
    for (std::size_t i = 0; i < cores.size(); ++i)
        canon += (i != 0 ? "," : "") + std::to_string(cores[i]);
    canon += "\nengine=";
    for (std::size_t i = 0; i < engines.size(); ++i)
        canon += (i != 0 ? "," : "") + std::string(sim::to_string(engines[i]));
    canon += "\nsampling=";
    for (std::size_t i = 0; i < samplings.size(); ++i)
        canon += (i != 0 ? "," : "") + samplings[i].canon;
    canon += "\noverrides=";
    for (std::size_t i = 0; i < overrides.size(); ++i)
        canon += (i != 0 ? "," : "") + canon_override_set(overrides[i]);
    canon += "\nworkloads=";
    for (std::size_t i = 0; i < workload_specs.size(); ++i)
        canon += (i != 0 ? "," : "") + workload_specs[i];
    canon += "\nreplicates=" + std::to_string(m.replicates);
    canon += "\nbase_seed=" + std::to_string(m.base_seed);
    canon += "\ninstructions=" + std::to_string(m.instructions);
    canon += "\nwarmup=" + std::to_string(m.warmup);
    m.hash = fnv1a(fnv_offset, canon);
    if (m.hash == 0)
        m.hash = 1; // 0 is the "no manifest" sentinel in job rows

    return m;
}

std::optional<manifest> load_manifest(const std::string& path,
                                      std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        set_error(error, "cannot read manifest '" + path + "'");
        return std::nullopt;
    }
    std::string text(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
    std::string parse_error;
    auto m = parse_manifest(text, &parse_error);
    if (!m) {
        set_error(error, path + ": " + parse_error);
        return std::nullopt;
    }
    return m;
}

} // namespace lnuca::exp
