#include "src/hier/system.h"

#include "src/ckpt/signal.h"
#include "src/common/log.h"
#include "src/trace/scenarios.h"
#include "src/trace/trace_stream.h"
#include "src/trace/trace_writer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <unistd.h>

namespace lnuca::hier {

system::system(const system_config& config, const wl::workload_profile& workload,
               std::uint64_t seed)
    : system(config, std::vector<wl::workload_profile>{workload}, seed)
{
}

system::system(const system_config& config,
               const std::vector<wl::workload_profile>& workloads,
               std::uint64_t seed)
    : config_(config), seed_(seed)
{
    if (workloads.empty())
        throw std::invalid_argument("system: no workloads");
    engine_.set_mode(config.engine_mode);
    if (!config_.capture_path.empty())
        capture_ = std::make_unique<trace::trace_writer>(
            config_.capture_path, workloads.front().name,
            workloads.front().floating_point, std::max(1u, config_.cores));
    build(workloads);
}

system::~system()
{
    if (capture_) {
        capture_->set_workload(streams_.front()->profile().name,
                               streams_.front()->profile().floating_point);
        capture_->write();
    }
}

std::shared_ptr<const trace::trace_data>
system::trace_source(const wl::workload_profile& profile)
{
    const std::string key = !profile.trace_path.empty()
                                ? "trace:" + profile.trace_path
                                : "scenario:" + profile.scenario;
    for (const auto& [cached_key, cached] : trace_cache_)
        if (cached_key == key)
            return cached;
    std::shared_ptr<const trace::trace_data> data;
    if (!profile.trace_path.empty()) {
        data = trace::trace_data::open(profile.trace_path);
    } else {
        trace::scenario_params params;
        params.cores = std::max(1u, config_.cores);
        params.seed = seed_;
        data = trace::make_scenario(profile.scenario, params);
    }
    trace_cache_.emplace_back(key, data);
    return data;
}

std::unique_ptr<wl::workload_stream>
system::make_lane_stream(const wl::workload_profile& profile, unsigned lane)
{
    std::unique_ptr<wl::workload_stream> stream;
    if (!profile.trace_path.empty() || !profile.scenario.empty()) {
        stream = std::make_unique<trace::trace_stream>(trace_source(profile),
                                                       lane);
    } else {
        // The synthetic seed/region derivations are the frozen pre-trace
        // formulas: single-core and CMP bit-identity guards depend on them.
        // Each core gets its own disjoint slot.
        const addr_t region =
            0x10000000 + addr_t(config_.cores > 1 ? lane : 0) * 0x40000000ULL;
        const std::uint64_t stream_seed =
            config_.cores > 1 ? rng::split(seed_, 0x5770c0ULL, lane)
                              : hash64(seed_ ^ hash64(0x5770));
        stream = std::make_unique<wl::synthetic_stream>(profile, stream_seed,
                                                        region);
    }
    if (capture_)
        stream = std::make_unique<trace::capture_stream>(std::move(stream),
                                                         *capture_, lane);
    return stream;
}

system::level_set system::levels() const
{
    level_set l;
    l.fabric = config_.kind == hierarchy_kind::lnuca_l3 ||
               config_.kind == hierarchy_kind::lnuca_dnuca;
    l.l2 = config_.kind == hierarchy_kind::conventional;
    l.l3 = config_.kind == hierarchy_kind::conventional ||
           config_.kind == hierarchy_kind::lnuca_l3;
    l.dnuca = config_.kind == hierarchy_kind::dnuca ||
              config_.kind == hierarchy_kind::lnuca_dnuca;
    return l;
}

void system::build_shared_components()
{
    memory_ = std::make_unique<mem::main_memory>(config_.memory);

    const auto [with_fabric, with_l2, with_l3, with_dnuca] = levels();

    if (with_fabric) {
        fabric::fabric_config fc = config_.fabric;
        fc.seed = hash64(seed_ ^ 0xfab);
        fc.tile.seed = hash64(seed_ ^ 0x711e);
        fabric_ = std::make_unique<fabric::lnuca_cache>(fc, ids_);
        fabric_->set_paranoid(config_.engine_mode ==
                              sim::schedule_mode::paranoid);
    }
    if (with_l2) {
        mem::cache_config l2c = config_.l2;
        l2c.seed = hash64(seed_ ^ 0x22);
        l2_ = std::make_unique<mem::conventional_cache>(l2c, ids_);
    }
    if (with_l3) {
        mem::cache_config l3c = config_.l3;
        l3c.seed = hash64(seed_ ^ 0x33);
        l3_ = std::make_unique<mem::conventional_cache>(l3c, ids_);
    }
    if (with_dnuca) {
        dnuca::dnuca_config dc = config_.dnuca;
        dc.seed = hash64(seed_ ^ 0xd0ca);
        dnuca_ = std::make_unique<dnuca::dnuca_cache>(dc, ids_);
    }
}

// Wire the constructed shared level beneath `above` - the lone L1 in
// single-core mode, the coherence hub in CMP mode - preserving the
// producers-before-consumers registration order (see sim/engine.h):
// fabric-or-(bus, L2), then L3-or-D-NUCA, then memory.
mem::mem_port* system::wire_shared_level(mem::mem_client* above)
{
    const auto [with_fabric, with_l2, with_l3, with_dnuca] = levels();

    mem::mem_port* below = nullptr;
    if (with_fabric) {
        below = fabric_.get();
        fabric_->set_upstream(above);
        engine_.add(*fabric_);
    } else if (with_l2) {
        // The narrow shared bus to the L2: the inter-cache hop the L-NUCA
        // eliminates.
        l1_l2_bus_ = std::make_unique<mem::bus>(config_.l1_l2_bus);
        below = l1_l2_bus_.get();
        l1_l2_bus_->set_upstream(above);
        l1_l2_bus_->set_downstream(l2_.get());
        l2_->set_upstream(l1_l2_bus_.get());
        engine_.add(*l1_l2_bus_);
        engine_.add(*l2_);
    }

    if (below == nullptr) {
        // D-NUCA directly beneath `above` (Fig. 1(c)).
        below = dnuca_.get();
        dnuca_->set_upstream(above);
        engine_.add(*dnuca_);
        dnuca_->set_downstream(memory_.get());
        memory_->set_upstream(dnuca_.get());
        engine_.add(*memory_);
        return below;
    }

    if (with_l3) {
        l3_->set_upstream(static_cast<mem::mem_client*>(
            with_fabric ? static_cast<mem::mem_client*>(fabric_.get())
                        : static_cast<mem::mem_client*>(l2_.get())));
        if (with_fabric)
            fabric_->set_downstream(l3_.get());
        else
            l2_->set_downstream(l3_.get());
        engine_.add(*l3_);
        l3_->set_downstream(memory_.get());
        memory_->set_upstream(l3_.get());
    } else if (with_dnuca) {
        // L-NUCA + D-NUCA (Fig. 1(d)).
        dnuca_->set_upstream(fabric_.get());
        fabric_->set_downstream(dnuca_.get());
        engine_.add(*dnuca_);
        dnuca_->set_downstream(memory_.get());
        memory_->set_upstream(dnuca_.get());
    }
    engine_.add(*memory_);
    return below;
}

// Cores, private L1s and (with more than one core) the coherence hub above
// the shared level. Each core's workload lane derives from
// rng::split(seed, lane-tag, core) with a disjoint data region. A single
// core keeps the pre-CMP derived seeds, L1 settings and registration
// order: the cores=1 bit-identity guards in tests/coh_test.cpp and
// tests/golden_rows_test.cpp depend on them.
void system::build(const std::vector<wl::workload_profile>& workloads)
{
    const unsigned n = std::max(1u, config_.cores);
    if (n > mem::max_cores)
        throw std::invalid_argument("system: cores > 32 unsupported");

    for (unsigned i = 0; i < n; ++i) {
        streams_.push_back(
            make_lane_stream(workloads[i % workloads.size()], i));
        cores_.push_back(std::make_unique<cpu::ooo_core>(
            config_.core, *streams_.back(), ids_));

        mem::cache_config l1c = config_.l1;
        if (n == 1) {
            l1c.seed = hash64(seed_ ^ 0x11);
        } else {
            l1c.name = "L1#" + std::to_string(i);
            l1c.seed = rng::split(seed_, 0x11c0ULL, i);
            // MESI structurally requires copy-back write-allocate L1s that
            // notify the directory of every eviction - clean victims
            // included - so the sharer masks track L1 contents exactly.
            // This is the one place that sets them, so setting `cores`
            // directly on a stock preset cannot silently break coherence -
            // a write-through L1 would drain stores as access_kind::write,
            // which the hub has no transition for.
            l1c.write_through = false;
            l1c.write_allocate = true;
            l1c.writeback_clean = true;
            l1c.coherent = true;
            l1c.core_id = mem::core_id_t(i);
        }
        l1s_.push_back(std::make_unique<mem::conventional_cache>(l1c, ids_));
    }

    if (n > 1) {
        coh::coherence_config cc = config_.coherence;
        cc.cores = n;
        cc.block_bytes = config_.l1.block_bytes;
        if (cc.directory_entries == 0) {
            // Inclusive over the L1s: size for every line every L1 can hold
            // plus in-flight fills/evictions - overflow becomes
            // structurally impossible.
            const std::uint32_t l1_lines =
                std::uint32_t(config_.l1.size_bytes / config_.l1.block_bytes);
            cc.directory_entries = n * (l1_lines + config_.l1.mshr_entries +
                                        config_.l1.write_buffer_entries + 64);
        }
        hub_ = std::make_unique<coh::coherence_hub>(cc, ids_);
        hub_->set_paranoid(config_.engine_mode ==
                           sim::schedule_mode::paranoid);
    }

    build_shared_components();

    // Wire top-down. Registration order is the timing contract: producers
    // tick before the consumers beneath them (see sim/engine.h) - cores,
    // private L1s, hub, shared level, memory.
    for (unsigned i = 0; i < n; ++i) {
        cores_[i]->set_dcache(l1s_[i].get());
        engine_.add(*cores_[i]);
    }
    for (unsigned i = 0; i < n; ++i) {
        l1s_[i]->set_upstream(cores_[i].get());
        if (hub_) {
            l1s_[i]->set_downstream(hub_.get());
            hub_->attach_l1(mem::core_id_t(i), l1s_[i].get());
        }
        engine_.add(*l1s_[i]);
    }
    if (hub_) {
        engine_.add(*hub_);
        hub_->set_downstream(wire_shared_level(hub_.get()));
    } else {
        l1s_.front()->set_downstream(wire_shared_level(l1s_.front().get()));
    }
    prewarm();
}

void system::prewarm()
{
    // Functionally install the workloads' hot windows into the large
    // arrays before measurement, substituting for the paper's
    // 200M-instruction warm-up, which scaled-down runs cannot afford.
    // Smaller structures (L1, L-NUCA tiles, conventional L2) warm
    // naturally during the simulated warm-up window; the L2 is included
    // here because its 4K lines are borderline at short windows. With N
    // cores the capacity splits evenly across the per-core streams (each
    // stream owns a disjoint region, so the shares cannot collide).
    // Streams with no warm table (scenario lanes, traces captured from
    // them) skip pre-warm: their working sets are small enough to warm
    // naturally, and there is no hot-window structure to install.
    //
    // Each lane's window is walked oldest-first, one 32-B generator block
    // at a time, but a block is installed only when its line in the
    // target array differs from the line installed just before it. The
    // skip is exact: that repeat would hit the line the previous install
    // left most recently used, so it could only renumber LRU stamps
    // without changing their order (random and FIFO ignore the touch, and
    // a hit draws no victim). Non-consecutive repeats - a window that
    // wraps the footprint - are still installed. tests/prewarm_oracle_test
    // checks the arrays against one install per generator block.
    const std::uint64_t n = streams_.size();
    auto walk_lines = [&](std::uint64_t window_bytes, std::uint32_t line_bytes,
                          auto install) {
        const std::uint64_t window = window_bytes / 32 / n; // generator blocks
        const addr_t line_mask = ~addr_t(line_bytes - 1);
        for (const auto& stream : streams_) {
            if (stream->warm_block_count() == 0)
                continue;
            addr_t last = no_addr;
            for (std::uint64_t j = window; j-- > 0;) {
                const addr_t line = stream->warm_block(j) & line_mask;
                if (line != last)
                    install(line);
                last = line;
            }
        }
    };
    for (mem::conventional_cache* cache : {l3_.get(), l2_.get()}) {
        if (cache == nullptr)
            continue;
        mem::tag_array& tags = cache->tags();
        walk_lines(tags.size_bytes(), tags.block_bytes(),
                   [&](addr_t line) { tags.install(line, false); });
    }
    if (dnuca_)
        walk_lines(dnuca_->size_bytes(), dnuca_->config().block_bytes,
                   [&](addr_t line) { dnuca_->prewarm(line); });
    if (fabric_) {
        // The fabric holds the recency window just beyond the L1's 1024
        // blocks; the L1 itself warms naturally within the warm-up window.
        const std::uint64_t l1_blocks = config_.l1.size_bytes / 32;
        const std::uint64_t capacity = fabric_->tile_capacity_bytes() / 32 / n;
        for (const auto& stream : streams_) {
            if (stream->warm_block_count() == 0)
                continue;
            std::uint64_t installed = 0;
            for (std::uint64_t j = l1_blocks;
                 installed < capacity && j < l1_blocks + 2 * capacity; ++j)
                installed += fabric_->prewarm(stream->warm_block(j)) ? 1 : 0;
        }
    }
}

/// Snapshot/delta accumulator for detailed measurement: the exact driver
/// sums its chunks (one without checkpointing), the sampled driver its
/// windows (plus per-window CPI samples for the confidence interval).
struct system::window_totals {
    std::uint64_t instructions = 0; ///< all lanes together
    std::uint64_t cycles = 0;       ///< engine cycles of the measured spans
    std::vector<double> window_cpi; ///< one sample per window (CI input)
    /// Per lane: committed instructions and cycles up to the lane's own
    /// committing tick (per-core IPC).
    std::vector<std::uint64_t> lane_instructions;
    std::vector<std::uint64_t> lane_cycles;

    /// The table's extrapolated counts, summed over the measured spans
    /// (for_each_count; the other members stay default).
    run_result counts;
    std::uint64_t load_latency_weighted = 0; ///< exact Σ latency (histogram)
    std::uint64_t load_latency_count = 0;
    power::energy_inputs energy; ///< event counts summed over the spans

    /// Where a harvested count accumulates: a run_result count or an
    /// energy event.
    template <class T> std::uint64_t& at(std::uint64_t T::*member)
    {
        if constexpr (std::is_same_v<T, run_result>)
            return counts.*member;
        else
            return energy.*member;
    }

    /// The accumulated measurement travels inside the checkpoint's `driver`
    /// section, so a resumed run continues summing into the same totals.
    template <class Ar> void serialize(Ar& ar)
    {
        ar(instructions);
        ar(cycles);
        ar(window_cpi);
        ar(lane_instructions);
        ar(lane_cycles);
        for_each_count(
            [&](const field&, auto member) { ar(counts.*member); });
        ar(load_latency_weighted);
        ar(load_latency_count);
        ar(energy);
    }
};

namespace {

/// Where every harvested count comes from, as f(target, section, counter,
/// second counter or nullptr). A target is one of run_result's extrapolated
/// counts or one of the energy model's events. It accumulates a measured
/// span's delta of the named counter(s), summed over every component of
/// the section (all cores, all L1s). The u64 array collects the counters
/// named <counter><k> at index k.
template <class F> void for_each_harvested(F&& f)
{
    using ckpt::section_id;
    using in = power::energy_inputs;
    const auto from = [&](auto target, section_id section, const char* counter,
                          const char* plus = nullptr) {
        f(target, section, counter, plus);
    };
    from(&run_result::l2_read_hits, section_id::l2, "read_hit");
    from(&run_result::fabric_read_hits, section_id::fabric, "read_hits_level_");
    from(&run_result::transport_actual, section_id::fabric,
         "transport_actual_cycles");
    from(&run_result::transport_min, section_id::fabric,
         "transport_min_cycles");
    from(&run_result::search_restarts, section_id::fabric, "search_restarts");
    from(&run_result::searches, section_id::fabric, "searches_injected");
    from(&run_result::loads_l1, section_id::core, "loads_l1");
    from(&run_result::loads_fabric, section_id::core, "loads_fabric");
    from(&run_result::loads_l2, section_id::core, "loads_l2");
    from(&run_result::loads_l3, section_id::core, "loads_l3");
    from(&run_result::loads_dnuca, section_id::core, "loads_dnuca");
    from(&run_result::loads_memory, section_id::core, "loads_memory");
    from(&run_result::loads_peer, section_id::core, "loads_peer");
    from(&in::l1_accesses, section_id::l1, "accesses");
    from(&in::l2_accesses, section_id::l2, "accesses");
    from(&in::tile_tag_lookups, section_id::fabric, "tile_tag_lookups");
    from(&in::tile_data_accesses, section_id::fabric, "tile_data_reads",
         "tile_data_writes");
    from(&in::transport_hops, section_id::fabric, "transport_hops");
    from(&in::replacement_hops, section_id::fabric, "replacement_hops");
    from(&in::search_hops, section_id::fabric, "search_broadcast_hops");
    from(&in::l3_accesses, section_id::l3, "accesses");
    from(&in::bank_accesses, section_id::dnuca, "bank_lookups", "bank_writes");
    from(&in::dnuca_flit_hops, section_id::dnuca, "flit_hops");
    from(&in::memory_transfers, section_id::memory, "transfers");
}

} // namespace

system::counter_values system::snapshot_counters() const
{
    counter_values values;
    for_each_component([&](ckpt::section_id, std::uint32_t,
                           const auto& component) {
        values.emplace_back();
        for (const auto& item : component.counters().items())
            values.back().push_back(item.second);
    });
    return values;
}

void system::harvest(const counter_values& before, window_totals& totals) const
{
    std::size_t next = 0;
    for_each_component([&](ckpt::section_id id, std::uint32_t,
                           const auto& component) {
        const auto& items = component.counters().items();
        const std::vector<std::uint64_t>& base = before[next++];
        for_each_harvested([&](auto target, ckpt::section_id section,
                               const char* counter, const char* plus) {
            if (section != id)
                return;
            const std::size_t prefix = std::strlen(counter);
            for (std::size_t i = 0; i < items.size(); ++i) {
                const std::string& name = items[i].first;
                const std::uint64_t delta = items[i].second - base[i];
                if constexpr (std::is_same_v<decltype(target),
                                             std::vector<std::uint64_t>
                                                 run_result::*>) {
                    if (name.compare(0, prefix, counter) != 0)
                        continue;
                    std::vector<std::uint64_t>& sums = totals.counts.*target;
                    const std::size_t k = std::stoul(name.substr(prefix));
                    if (sums.size() <= k)
                        sums.resize(k + 1);
                    sums[k] += delta;
                } else if (name == counter || (plus && name == plus)) {
                    totals.at(target) += delta;
                }
            }
        });
    });
}

void system::apply_totals(run_result& r, const window_totals& totals,
                          double factor) const
{
    // factor 1 (exact runs) is the identity: the counts stay far below 2^53.
    const auto scaled = [factor](std::uint64_t v) {
        return std::uint64_t(std::llround(double(v) * factor));
    };
    for_each_count([&](const field&, auto member) {
        r.*member = totals.counts.*member;
        if constexpr (kind_of(decltype(member){}) == field_kind::u64)
            r.*member = scaled(r.*member);
        else
            for (std::uint64_t& v : r.*member)
                v = scaled(v);
    });
    r.avg_load_latency =
        totals.load_latency_count == 0
            ? 0.0
            : totals.load_latency_weighted / double(totals.load_latency_count);

    power::energy_inputs in = totals.energy;
    power::energy_inputs::for_each_event(
        [&](auto member) { in.*member = scaled(in.*member); });
    in.cycles = r.cycles;
    in.has_l2 = l2_ != nullptr;
    in.fabric_tiles = fabric_ ? fabric_->geo().tile_count() : 0;
    in.has_l3 = l3_ != nullptr;
    in.dnuca_banks = dnuca_ ? config_.dnuca.bank_sets * config_.dnuca.rows : 0;
    r.energy = power::compute_energy(in);
}

// ---------------------------------------------------------------------------
// Checkpoint/restore orchestration. The system owns the section layout -
// every component's serialize() runs inside a section the system opens for
// it - so the file structure is decided in exactly one place and the
// reader's exact-consumption check catches any reader/writer drift per
// component instead of smearing it across the file.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v)
{
    return hash64(h ^ hash64(v));
}

std::uint64_t mix_str(std::uint64_t h, const std::string& s)
{
    for (const char c : s)
        h = mix(h, std::uint64_t(std::uint8_t(c)));
    return mix(h, s.size());
}

/// "core#1", "l2": how a component section is named in digests and errors.
std::string section_name(ckpt::section_id id, std::uint32_t index)
{
    std::string name = ckpt::to_string(id);
    if (id == ckpt::section_id::core || id == ckpt::section_id::l1)
        name += "#" + std::to_string(index);
    return name;
}

} // namespace

std::uint64_t system::ckpt_config_hash() const
{
    // Everything that decides which driver runs, which sections exist, how
    // the components are sized and - through checkpoint.every, which sets
    // the exact driver's chunk boundaries and drains - the schedule itself.
    // Deliberately not every tuning knob: the per-component payloads carry
    // their own structure (vector sizes), so a resized cache fails the
    // section load loudly even if the hash passed.
    std::uint64_t h = 0x4c4e4b50'54310001ULL;
    h = mix_str(h, config_.name);
    h = mix(h, std::uint64_t(config_.kind));
    h = mix(h, config_.cores);
    h = mix(h, seed_);
    h = mix(h, std::uint64_t(config_.engine_mode));
    h = mix(h, config_.sampling.enabled ? 1 : 0);
    h = mix(h, config_.sampling.detail_instructions);
    h = mix(h, config_.sampling.detail_warmup);
    h = mix(h, config_.sampling.period_instructions);
    h = mix(h, config_.checkpoint.every);
    h = mix(h, config_.l1.size_bytes);
    h = mix(h, config_.l2.size_bytes);
    h = mix(h, config_.l3.size_bytes);
    h = mix(h, config_.fabric.levels);
    h = mix(h, config_.dnuca.bank_sets);
    h = mix(h, config_.dnuca.rows);
    for (const auto& stream : streams_)
        h = mix_str(h, stream->profile().name);
    return h;
}

template <class F> void system::for_each_component(F&& f) const
{
    using ckpt::section_id;
    for (std::size_t i = 0; i < cores_.size(); ++i)
        f(section_id::core, std::uint32_t(i), *cores_[i]);
    for (std::size_t i = 0; i < l1s_.size(); ++i)
        f(section_id::l1, std::uint32_t(i), *l1s_[i]);
    if (hub_)
        f(section_id::hub, 0u, *hub_);
    if (l1_l2_bus_)
        f(section_id::bus, 0u, *l1_l2_bus_);
    if (l2_)
        f(section_id::l2, 0u, *l2_);
    if (l3_)
        f(section_id::l3, 0u, *l3_);
    if (fabric_)
        f(section_id::fabric, 0u, *fabric_);
    if (dnuca_)
        f(section_id::dnuca, 0u, *dnuca_);
    f(section_id::memory, 0u, *memory_);
}

std::vector<std::pair<std::string, std::uint64_t>>
system::component_digests() const
{
    std::vector<std::pair<std::string, std::uint64_t>> digests;
    for_each_component([&](ckpt::section_id id, std::uint32_t index,
                           const auto& component) {
        digests.emplace_back(section_name(id, index),
                             component.state_digest());
    });
    return digests;
}

void system::save_checkpoint(
    std::uint64_t run_instructions, std::uint64_t run_warmup,
    const std::function<void(ckpt::saver&)>& progress)
{
    using ckpt::section_id;
    try {
        // The writer reserves the section table up front: meta, engine,
        // driver and digests, plus one section per component and per lane.
        std::size_t sections = 4 + streams_.size();
        for_each_component([&](section_id, std::uint32_t, const auto&) {
            ++sections;
        });
        ckpt::writer w(config_.checkpoint.path, sections);

        // meta: pure run identity, validated on restore before any state
        // is touched (so a mismatch is always a safe cold start).
        w.begin_section(section_id::meta);
        {
            ckpt::saver ar(w);
            ar(run_instructions);
            ar(run_warmup);
            ar(seed_);
            std::uint64_t lanes = streams_.size();
            std::uint64_t n_cores = cores_.size();
            ar(lanes);
            ar(n_cores);
        }
        w.end_section();

        w.begin_section(section_id::engine);
        {
            ckpt::saver ar(w);
            engine_.serialize(ar);
            ar(ids_);
        }
        w.end_section();

        // Components persist only state that survives a drain; in-flight
        // machinery is not serialized, so a busy component would save a
        // snapshot that silently drops work.
        for_each_component([&](section_id id, std::uint32_t index,
                               const auto& component) {
            if (!component.quiescent())
                throw ckpt::ckpt_error(
                    section_name(id, index) +
                    ": checkpoint requested while not quiescent");
            w.begin_section(id, index);
            ckpt::saver ar(w);
            ar(component);
            w.end_section();
        });

        for (std::size_t i = 0; i < streams_.size(); ++i) {
            w.begin_section(section_id::stream, std::uint32_t(i));
            streams_[i]->save_state(w);
            w.end_section();
        }

        w.begin_section(section_id::driver);
        {
            ckpt::saver ar(w);
            progress(ar);
        }
        w.end_section();

        // Digest values in component_digests() order; restore recomputes
        // and compares, so a load that "succeeded" into the wrong state is
        // caught before the run resumes.
        w.begin_section(section_id::digests);
        {
            ckpt::saver ar(w);
            for (const auto& [name, digest] : component_digests())
                ar(digest);
        }
        w.end_section();

        w.finalize(ckpt_config_hash());
    } catch (const ckpt::ckpt_error& e) {
        // A failed save must never kill the run it protects; the previous
        // snapshot (if any) is still intact thanks to the atomic replace.
        LNUCA_WARN("checkpoint save failed (", e.what(),
                   "); continuing without a snapshot");
    }
}

bool system::try_load_checkpoint(
    std::uint64_t run_instructions, std::uint64_t run_warmup,
    const std::function<void(ckpt::loader&)>& progress)
{
    using ckpt::section_id;
    const checkpoint_config& cc = config_.checkpoint;
    if (!cc.resume || cc.path.empty())
        return false;
    if (::access(cc.path.c_str(), F_OK) != 0)
        return false; // no snapshot yet: the normal first-run cold start

    bool mutated = false;
    try {
        ckpt::reader r(cc.path);
        if (r.config_hash() != ckpt_config_hash())
            throw ckpt::ckpt_error(
                cc.path +
                ": checkpoint belongs to a different run (config hash "
                "mismatch)");

        r.open_section(section_id::meta);
        {
            ckpt::loader ar(r);
            std::uint64_t instr = 0, wu = 0, seed = 0, lanes = 0, n_cores = 0;
            ar(instr);
            ar(wu);
            ar(seed);
            ar(lanes);
            ar(n_cores);
            if (instr != run_instructions || wu != run_warmup)
                throw ckpt::ckpt_error(
                    cc.path + ": run length mismatch (checkpointed " +
                    std::to_string(instr) + "+" + std::to_string(wu) +
                    ", requested " + std::to_string(run_instructions) + "+" +
                    std::to_string(run_warmup) + ")");
            if (seed != seed_ || lanes != streams_.size() ||
                n_cores != cores_.size())
                throw ckpt::ckpt_error(cc.path +
                                       ": seed or topology mismatch");
        }
        r.close_section();

        // Everything below mutates live state: a failure past this point
        // leaves the system neither cold nor restored, so it escalates to
        // the caller (which rebuilds from scratch) instead of silently
        // "falling back" on polluted state.
        mutated = true;

        r.open_section(section_id::engine);
        {
            ckpt::loader ar(r);
            engine_.serialize(ar);
            ar(ids_);
        }
        r.close_section();

        for_each_component([&](section_id id, std::uint32_t index,
                               auto& component) {
            r.open_section(id, index);
            ckpt::loader ar(r);
            ar(component);
            r.close_section();
        });

        for (std::size_t i = 0; i < streams_.size(); ++i) {
            r.open_section(section_id::stream, std::uint32_t(i));
            streams_[i]->load_state(r);
            r.close_section();
        }

        r.open_section(section_id::driver);
        {
            ckpt::loader ar(r);
            progress(ar);
        }
        r.close_section();

        // Digest verification: the save-time digests must match the values
        // the restored components compute now.
        r.open_section(section_id::digests);
        {
            ckpt::loader ar(r);
            for (const auto& [name, digest] : component_digests()) {
                std::uint64_t stored = 0;
                ar(stored);
                if (stored != digest)
                    throw ckpt::ckpt_error(
                        cc.path + ": state digest mismatch after restore (" +
                        name + ")");
            }
        }
        r.close_section();

        // Paranoid fidelity additionally proves the restored directory
        // sound before a single post-restore cycle executes.
        if (config_.engine_mode == sim::schedule_mode::paranoid && hub_)
            hub_->check_invariants();

        LNUCA_INFO("resumed from checkpoint ", cc.path, " at cycle ",
                   engine_.now());
        return true;
    } catch (const ckpt::ckpt_error& e) {
        if (!mutated) {
            LNUCA_WARN("ignoring checkpoint (", e.what(), "); cold start");
            return false;
        }
        throw ckpt::ckpt_error(
            std::string("checkpoint restore failed after state was "
                        "partially loaded (") +
            e.what() + "); rebuild the system and run cold");
    }
}

void system::checkpoint_boundary(
    std::uint64_t retired, std::uint64_t run_instructions,
    std::uint64_t run_warmup,
    const std::function<void(ckpt::saver&)>& progress)
{
    const checkpoint_config& cc = config_.checkpoint;
    if (!cc.enabled())
        return;
    const bool signalled = ckpt::interrupt_requested();
    if (!signalled && retired - ckpt_last_save_ < cc.every)
        return;

    save_checkpoint(run_instructions, run_warmup, progress);
    ckpt_last_save_ = retired;
    ++ckpt_saves_;

    // CI crash hook: simulate a SIGKILL a bounded number of saves into the
    // run (the fault harness cannot aim a real KILL at a quiescent point).
    if (const char* env = std::getenv("LNUCA_CKPT_EXIT_AFTER")) {
        const std::uint64_t n = std::strtoull(env, nullptr, 10);
        if (n != 0 && ckpt_saves_ >= n)
            std::_Exit(137);
    }
    if (signalled || (cc.halt_after != 0 && ckpt_saves_ >= cc.halt_after))
        throw ckpt::interrupted(cc.path);
}

void system::checkpoint_complete()
{
    // A finished run's snapshot must not survive: resuming it would replay
    // the final chunk of an already-reported job. Nor may the tmp file of
    // a save a kill cut short (a save streams into it for its whole length).
    if (config_.checkpoint.enabled()) {
        ::unlink(config_.checkpoint.path.c_str());
        ::unlink((config_.checkpoint.path + ".tmp").c_str());
    }
}

// ---------------------------------------------------------------------------
// The run drivers. Every lane retires the same per-lane instruction count;
// a single core is one lane whose fast-forward rate is always 1.
// ---------------------------------------------------------------------------

namespace {

/// Cycle ceiling for a span of `instructions` per lane: generous (contended
/// CMP lanes run far slower than a lone core), so only runaways reach it.
cycle_t cycle_ceiling(std::uint64_t instructions)
{
    return 600 * instructions + 2'000'000;
}

double seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

void set_host_timing(run_result& r, double host_seconds)
{
    r.host_seconds = host_seconds;
    r.sim_cycles_per_second =
        host_seconds > 0.0 ? double(r.cycles) / host_seconds : 0.0;
    r.sim_instructions_per_second =
        host_seconds > 0.0 ? double(r.instructions) / host_seconds : 0.0;
}

} // namespace

run_result system::run(std::uint64_t instructions, std::uint64_t warmup)
{
    // A zero-instruction request has no windows to place; the exact driver
    // handles it as a degenerate (empty) measurement.
    if (config_.sampling.enabled && instructions > 0)
        return run_sampled(instructions, warmup);
    return run_exact(instructions, warmup);
}

run_result system::lane_result(const window_totals& totals) const
{
    run_result r;
    r.config_name = config_.name;
    r.floating_point = streams_.front()->profile().floating_point;
    r.cores = std::uint32_t(cores_.size());

    // Workload label: the mix's distinct names, first-appearance order.
    std::vector<std::string> seen;
    for (const auto& stream : streams_) {
        const std::string& name = stream->profile().name;
        if (std::find(seen.begin(), seen.end(), name) == seen.end())
            seen.push_back(name);
    }
    r.workload_name = seen.front();
    for (std::size_t i = 1; i < seen.size(); ++i)
        r.workload_name += "+" + seen[i];

    // Single-core rows carry no per-core array (their ipc is the one lane).
    if (cores_.size() > 1)
        for (std::size_t i = 0; i < cores_.size(); ++i)
            r.per_core_ipc.push_back(
                totals.lane_cycles[i] == 0
                    ? 0.0
                    : double(totals.lane_instructions[i]) /
                          double(totals.lane_cycles[i]));
    return r;
}

run_result system::run_exact(std::uint64_t instructions, std::uint64_t warmup)
{
    const cycle_t max_cycles = cycle_ceiling(instructions + warmup);

    // Per-lane measurement cursor + accumulated totals: the driver's entire
    // progress state, so they are what the `driver` section carries.
    window_totals totals;
    std::uint64_t done = 0;
    const auto progress = [&](auto& ar) {
        ar(done);
        ar(totals);
    };

    const bool restored = try_load_checkpoint(instructions, warmup, progress);
    if (restored) {
        ckpt_last_save_ = done;
    } else {
        // Warm-up: every core runs its warm-up quota; early finishers idle
        // (standard fixed-instruction multiprogrammed methodology). Not
        // checkpointed - a kill during warm-up restarts cold, losing at
        // most the warm-up itself.
        for (auto& core : cores_)
            core->set_instruction_limit(warmup);
        engine_.run_until([&] { return all_done(); }, max_cycles);
    }

    // Measurement. Without checkpointing this is one segment covering the
    // whole run; with it, the run chops into checkpoint.every-instruction
    // chunks separated by a drain (excluded from the measured cycles) and a
    // quiescent snapshot. A lane may commit a few instructions past its
    // chunk quota (commit width), so the cursor advances by the slowest
    // lane's actual count.
    const auto host_start = std::chrono::steady_clock::now();
    const std::uint64_t chunk_size =
        config_.checkpoint.enabled() ? config_.checkpoint.every : 0;
    // `first` keeps the degenerate zero-instruction run on the historical
    // path: one empty measured segment, not zero segments.
    bool first = !restored;
    while (first || done < instructions) {
        first = false;
        const std::uint64_t chunk =
            chunk_size == 0 ? instructions - done
                            : std::min(chunk_size, instructions - done);
        detailed_segment(chunk, max_cycles, &totals);
        std::uint64_t slowest = cores_.front()->committed();
        for (const auto& core : cores_)
            slowest = std::min(slowest, core->committed());
        done += slowest;
        if (slowest < chunk)
            break; // cycle ceiling hit (detailed_segment warned)
        if (done < instructions && config_.checkpoint.enabled()) {
            drain(max_cycles);
            checkpoint_boundary(done, instructions, warmup, progress);
        }
    }
    checkpoint_complete();
    const double host_seconds = seconds_since(host_start);

    run_result r = lane_result(totals);
    r.instructions = totals.instructions;
    r.cycles = totals.cycles;
    r.ipc = r.cycles == 0 ? 0.0 : double(r.instructions) / double(r.cycles);
    set_host_timing(r, host_seconds);
    apply_totals(r, totals, 1.0);
    return r;
}

bool system::all_done() const
{
    for (const auto& core : cores_)
        if (!core->done())
            return false;
    return true;
}

bool system::quiescent() const
{
    bool idle = true;
    for_each_component([&](ckpt::section_id, std::uint32_t,
                           const auto& component) {
        idle = idle && component.quiescent();
    });
    return idle;
}

void system::drain(cycle_t max_cycles)
{
    if (!engine_.run_until([&] { return quiescent(); }, max_cycles))
        LNUCA_WARN("hierarchy failed to drain within ", max_cycles,
                   " cycles; continuing anyway");
}

void system::fast_forward_rated(std::uint64_t count,
                                const std::vector<double>& rates)
{
    if (count == 0)
        return;
    // Per-lane quota proportional to the lane's measured rate, normalised
    // to the mean so sum(quota) == count * cores: the aggregate accounting
    // (retired instructions, clock advance) is unchanged while the lane
    // *positions* drift apart exactly as they do under the dense schedule.
    const std::size_t n_cores = cores_.size();
    double sum = 0.0;
    for (const double r : rates)
        sum += std::max(r, 1e-6);
    std::vector<std::uint64_t> remaining(n_cores);
    std::vector<std::uint64_t> chunk(n_cores);
    for (std::size_t i = 0; i < n_cores; ++i) {
        const double share =
            std::max(rates[i], 1e-6) * double(n_cores) / sum;
        remaining[i] = std::uint64_t(std::llround(double(count) * share));
        // Round-robin functional retirement in small chunks (~64 * share
        // instructions per lane per round) so the lanes' warm accesses
        // interleave at a fine grain: coherence behaviour (invalidations,
        // downgrades, cache-to-cache migration) depends on the interleave,
        // and retiring whole lanes back-to-back would let one lane
        // monopolise every contended line before the next starts.
        chunk[i] = std::max<std::uint64_t>(
            1, std::uint64_t(std::llround(64.0 * share)));
    }
    bool any = true;
    while (any) {
        any = false;
        for (std::size_t i = 0; i < n_cores; ++i) {
            const std::uint64_t n = std::min(chunk[i], remaining[i]);
            if (n == 0)
                continue;
            cores_[i]->warm_retire(n);
            remaining[i] -= n;
            any = any || remaining[i] > 0;
        }
    }
    // The warm MESI transitions must leave the directory sound after every
    // functional segment; paranoid runs assert it.
    if (hub_ && config_.engine_mode == sim::schedule_mode::paranoid)
        hub_->check_invariants();
    // The clock advances at a nominal CPI of 1: reported cycles come from
    // the window estimate, so the rate only keeps timestamps monotone.
    engine_.advance(count);
}

cycle_t system::lane_cycles(std::size_t i, cycle_t start) const
{
    // The committing tick is recorded by the core itself, so this is
    // schedule-independent (dense == idle-skip).
    const cycle_t fin = cores_[i]->finished_at() == no_cycle
                            ? engine_.now()
                            : cores_[i]->finished_at();
    return fin + 1 - start;
}

void system::detailed_segment(std::uint64_t instructions, cycle_t max_cycles,
                              window_totals* totals)
{
    // Every lane gets the same committed-instruction quota; the window CPI
    // is the aggregate (total instructions over engine cycles).
    for (auto& core : cores_)
        core->reset_stats();
    if (totals == nullptr) {
        // Warm segment: re-establish pipeline/queue/MSHR occupancy under
        // full timing; measurements are discarded.
        for (auto& core : cores_)
            core->set_instruction_limit(instructions);
        engine_.run_until([&] { return all_done(); }, max_cycles);
        return;
    }

    const counter_values before = snapshot_counters();

    const cycle_t start = engine_.now();
    for (auto& core : cores_)
        core->set_instruction_limit(instructions);
    const bool finished =
        engine_.run_until([&] { return all_done(); }, max_cycles);
    if (!finished)
        LNUCA_WARN("measurement window hit the cycle ceiling before "
                   "committing ", instructions, " instructions");

    totals->lane_instructions.resize(cores_.size());
    totals->lane_cycles.resize(cores_.size());
    std::uint64_t instr = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        instr += cores_[i]->committed();
        totals->lane_instructions[i] += cores_[i]->committed();
        totals->lane_cycles[i] += lane_cycles(i, start);
    }
    const std::uint64_t cycles = engine_.now() - start;
    totals->instructions += instr;
    totals->cycles += cycles;
    totals->window_cpi.push_back(instr == 0 ? 0.0
                                            : double(cycles) / double(instr));

    harvest(before, *totals);
    for (const auto& core : cores_) {
        totals->load_latency_weighted += core->load_latency().weighted_sum();
        totals->load_latency_count += core->load_latency().total();
    }
}

// ---------------------------------------------------------------------------
// Sampled execution (SMARTS-style): functional fast-forward punctuated by
// periodically placed detailed windows. See DESIGN.md, "Sampling and
// statistical confidence".
// ---------------------------------------------------------------------------

run_result system::run_sampled(std::uint64_t instructions, std::uint64_t warmup)
{
    // Sampled multi-core fast-forward is only coherence-correct through the
    // hub's warm MESI path: without it, functional retirement would desync
    // the private L1s' permission state from the directory.
    if (cores_.size() > 1) {
        if (!hub_)
            throw std::runtime_error(
                "sampled CMP execution requires the coherence hub; this "
                "hierarchy cannot honor the CMP warm_access contract "
                "(run with --sampling off)");
        for (const auto& l1 : l1s_)
            if (!l1->config().coherent)
                throw std::runtime_error(
                    "sampled CMP execution requires coherent private L1s; "
                    "this hierarchy cannot honor the CMP warm_access "
                    "contract (run with --sampling off)");
    }

    const sampling_config& sc = config_.sampling;
    const auto host_start = std::chrono::steady_clock::now();
    // Per-segment ceiling: segments are short, runaways are bugs.
    const cycle_t segment_budget =
        cycle_ceiling(sc.detail_instructions + sc.detail_warmup);

    // Window arithmetic is per lane: every core retires `instructions`.
    const std::uint64_t detail =
        std::min(std::max<std::uint64_t>(sc.detail_instructions, 1),
                 std::max<std::uint64_t>(instructions, 1));
    const std::uint64_t window_warmup =
        std::min(sc.detail_warmup,
                 instructions > detail ? instructions - detail : 0);
    const std::uint64_t period =
        std::max(sc.period_instructions, detail + window_warmup);
    const std::uint64_t windows =
        std::max<std::uint64_t>(1, instructions / period);
    const std::uint64_t base_span = std::max<std::uint64_t>(
        instructions / windows, detail + window_warmup);

    // Deterministic systematic placement: each window sits at an
    // independent random offset within its period, derived from the run
    // seed alone - thread count and shard layout cannot move a window.
    rng placement(rng::split(seed_, 0x5a3b11d6ULL, windows, 0));

    // Driver checkpoint state: next window, per-lane retired cursor, the
    // placement rng (already advanced past the restored windows), the
    // fast-forward rates and the totals.
    std::uint64_t k = 0;
    std::uint64_t retired = 0;
    // Per-lane retirement rate measured in the most recent detailed
    // window, fed back into the fast-forward (see fast_forward_rated):
    // sharing-heavy lane sets (producer/consumer hand-offs) see a very
    // different coherence pattern at zero lag than at the dense lag. The
    // run-level warm-up and the first window's fast-forward run in
    // lockstep (no measurement yet).
    std::vector<double> rates(cores_.size(), 1.0);
    window_totals totals;
    const auto progress = [&](auto& ar) {
        ar(k);
        ar(retired);
        ar(placement);
        ar(rates);
        ar(totals);
    };

    if (try_load_checkpoint(instructions, warmup, progress))
        ckpt_last_save_ = retired;
    else
        // The run-level warm-up executes functionally: large-structure
        // warmth comes from prewarm() plus the warm_access() path, timing
        // warmth from each window's detailed warm-up segment.
        fast_forward_rated(warmup, rates);

    const auto furthest = [&] {
        std::uint64_t m = 0;
        for (const auto& core : cores_)
            m = std::max(m, core->committed());
        return m;
    };

    while (k < windows) {
        const std::uint64_t span = k + 1 == windows
                                       ? instructions - (windows - 1) * base_span
                                       : base_span;
        const std::uint64_t slack = span - detail - window_warmup;
        const std::uint64_t offset = placement.below(slack + 1);

        fast_forward_rated(offset, rates);
        // `used` tracks the furthest lane's position inside the window;
        // slower lanes drift a few instructions behind the nominal
        // placement, which the estimate absorbs (sampling is statistical).
        std::uint64_t used = offset;
        if (window_warmup > 0) {
            detailed_segment(window_warmup, segment_budget, nullptr);
            used += furthest();
        }
        const cycle_t start = engine_.now();
        detailed_segment(detail, segment_budget, &totals);
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            const cycle_t window_cycles = lane_cycles(i, start);
            rates[i] = window_cycles == 0
                           ? 1.0
                           : double(cores_[i]->committed()) /
                                 double(window_cycles);
        }
        used += furthest();
        drain(segment_budget);
        fast_forward_rated(span > used ? span - used : 0, rates);
        retired += std::max(span, used);

        // Window boundaries are already quiescent (drain + functional
        // fast-forward), so the sampled snapshot costs no extra drain and
        // perturbs nothing. The cadence runs on the per-lane cursor.
        if (++k < windows)
            checkpoint_boundary(retired, instructions, warmup, progress);
    }
    checkpoint_complete();
    const double host_seconds = seconds_since(host_start);

    // The window CPI series is aggregate (total instructions over engine
    // cycles), so the estimate covers all lanes' retirement together.
    run_result r = lane_result(totals);
    assemble_sampled(r, totals, retired * cores_.size());
    set_host_timing(r, host_seconds);
    return r;
}

void system::assemble_sampled(run_result& r, const window_totals& totals,
                              std::uint64_t retired) const
{
    // Point estimate and confidence interval. Windows are (near) equal
    // size, so the run's CPI estimate is the plain mean of per-window CPI;
    // the 95% CI uses the normal approximation (SMARTS' large-n regime) and
    // transforms to IPC with the delta method.
    const std::size_t n = totals.window_cpi.size();
    double mean_cpi = 0.0;
    for (const double cpi : totals.window_cpi)
        mean_cpi += cpi;
    mean_cpi = n == 0 ? 0.0 : mean_cpi / double(n);
    double ci_cpi = 0.0;
    if (n >= 2) {
        double ss = 0.0;
        for (const double cpi : totals.window_cpi)
            ss += (cpi - mean_cpi) * (cpi - mean_cpi);
        const double stddev = std::sqrt(ss / double(n - 1));
        ci_cpi = 1.96 * stddev / std::sqrt(double(n));
    }

    r.sampled = true;
    r.sampled_windows = n;
    r.measured_instructions = totals.instructions;
    r.instructions = retired;
    r.ipc = mean_cpi > 0.0 ? 1.0 / mean_cpi : 0.0;
    r.ipc_ci95 = mean_cpi > 0.0 ? ci_cpi / (mean_cpi * mean_cpi) : 0.0;
    r.cycles = cycle_t(std::llround(double(retired) * mean_cpi));

    // Extrapolate the measured event counts to the whole run.
    apply_totals(r, totals,
                 totals.instructions == 0
                     ? 0.0
                     : double(retired) / double(totals.instructions));
}

run_result run_one(const system_config& config,
                   const wl::workload_profile& workload,
                   std::uint64_t instructions, std::uint64_t warmup,
                   std::uint64_t seed)
{
    system sys(config, workload, seed);
    return sys.run(instructions, warmup);
}

double weighted_speedup(const run_result& cmp_result,
                        const run_result& single_core_baseline)
{
    if (single_core_baseline.ipc <= 0.0)
        return 0.0;
    double ws = 0.0;
    for (const double ipc : cmp_result.per_core_ipc)
        ws += ipc / single_core_baseline.ipc;
    return ws;
}

} // namespace lnuca::hier
