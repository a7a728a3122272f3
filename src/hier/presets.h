// The paper's cache hierarchies (Fig. 1) as ready-made configurations:
//
//   l2_256kb()        L1 32KB -> L2 256KB -> L3 8MB          (Fig. 1(a))
//   lnuca_l3(k)       r-tile  -> LNk fabric -> L3 8MB        (Fig. 1(b))
//   dnuca_4x8()       L1 32KB -> 8MB D-NUCA (8 sets x 4 rows) (Fig. 1(c))
//   lnuca_dnuca(k)    r-tile  -> LNk fabric -> 8MB D-NUCA    (Fig. 1(d))
//
// All parameters follow Table I.
#pragma once

#include "src/coh/coherence_hub.h"
#include "src/cpu/ooo_core.h"
#include "src/dnuca/dnuca_cache.h"
#include "src/fabric/lnuca_cache.h"
#include "src/mem/bus.h"
#include "src/mem/cache.h"
#include "src/mem/main_memory.h"
#include "src/sim/engine.h"

#include <optional>
#include <string>

namespace lnuca::hier {

enum class hierarchy_kind {
    conventional, ///< L1 + L2 + L3
    lnuca_l3,     ///< r-tile + L-NUCA + L3
    dnuca,        ///< L1 + D-NUCA
    lnuca_dnuca,  ///< r-tile + L-NUCA + D-NUCA
};

/// SMARTS-style sampled simulation: functional fast-forward at warm state
/// punctuated by periodically placed detailed-timing windows whose IPC and
/// energy measurements extrapolate to the whole run with a 95% confidence
/// interval (see DESIGN.md, "Sampling and statistical confidence").
struct sampling_config {
    bool enabled = false;
    /// Measured detailed instructions per window.
    std::uint64_t detail_instructions = 2000;
    /// Detailed (discarded) warm-up instructions preceding each window,
    /// re-establishing pipeline/MSHR/queue occupancy after fast-forward.
    std::uint64_t detail_warmup = 1000;
    /// Window spacing in instructions; the detail fraction
    /// (detail_warmup + detail_instructions) / period bounds the cost.
    std::uint64_t period_instructions = 40'000;
};

/// Parse a --sampling spec: "off" or "periodic:<detail>:<period>[:<warmup>]"
/// (instruction counts; warmup defaults to detail / 2). Returns nullopt on
/// malformed input.
std::optional<sampling_config> parse_sampling_spec(const std::string& spec);

/// Mid-run checkpoint/restore (src/ckpt/). Enabled when `path` is set and
/// `every` > 0: the run drivers drain to quiescence and snapshot the full
/// simulator state every `every` retired instructions (and on
/// SIGTERM/SIGINT, once run_app has installed the latch). A run executed
/// with checkpointing enabled is bit-identical whether or not it is killed
/// and resumed at any of those points.
struct checkpoint_config {
    std::string path;         ///< checkpoint file ("" = disabled)
    std::uint64_t every = 0;  ///< instructions between snapshots (0 = off)
    bool resume = false;      ///< restore from `path` if present and valid
    /// Test hook: after the Nth successful save, throw ckpt::interrupted
    /// exactly as a signal would (0 = off). Lets tests exercise the
    /// kill+resume path deterministically in-process.
    std::uint64_t halt_after = 0;

    bool enabled() const { return !path.empty() && every != 0; }
};

struct system_config {
    std::string name = "L2-256KB";
    hierarchy_kind kind = hierarchy_kind::conventional;
    cpu::core_config core;
    mem::cache_config l1;
    mem::cache_config l2;
    mem::cache_config l3;
    fabric::fabric_config fabric;
    dnuca::dnuca_config dnuca;
    mem::main_memory_config memory;
    /// The conventional L1<->L2 connection crosses the die over a narrow
    /// shared bus (16B wires, two arbitration cycles each way, full 64B
    /// line streamed back), which puts the L2's load-to-use latency at the
    /// ~14 cycles of the Core 2-class parts the paper models its clock on.
    /// The L-NUCA replaces this bus with abutted message-wide local links -
    /// that is the paper's premise (Section III-A).
    mem::bus_config l1_l2_bus{16, 2, 64};
    std::uint64_t seed = 1;
    /// Engine scheduling. idle_skip is bit-identical to dense for every
    /// config x workload (enforced by tests/hier_test.cpp) and several
    /// times faster on idle-heavy hierarchies; paranoid cross-checks the
    /// skip schedule while stepping densely (tests/CI).
    sim::schedule_mode engine_mode = sim::schedule_mode::idle_skip;
    /// Sampled execution fidelity. Disabled by default: the run is then
    /// bit-identical to the pre-sampling driver (enforced by
    /// tests/sampling_test.cpp). CMP runs (cores > 1) sample through the
    /// warm MESI fast-forward path (requires the coherence hub and
    /// coherent private L1s; hier::system::run throws otherwise).
    sampling_config sampling;
    /// CMP mode: number of cores, each with a private L1I/L1D pair (the
    /// I-side is ideal - instruction fetch is perfect in this core model),
    /// attached to the shared level through a coh::coherence_hub. 1 keeps
    /// the single-core wiring byte-for-byte (no hub is built at all).
    unsigned cores = 1;
    /// Hub/directory parameters for cores > 1 (presets::cmp fills the
    /// latencies to match the backend's transport character).
    coh::coherence_config coherence;
    /// When non-empty, every instruction the front end hands out (next()
    /// and warm_next() alike) plus each stream's pre-warm table is
    /// serialised to this binary trace file when the system is destroyed;
    /// replaying it via a workload_profile::trace_path reproduces the run
    /// bit-identically. See src/trace/format.h.
    std::string capture_path;
    /// Mid-run checkpoint/restore (mutually exclusive with capture_path;
    /// exp::run_app rejects the combination).
    checkpoint_config checkpoint;
};

namespace presets {

/// Baseline three-level conventional hierarchy (L2 design-space winner).
system_config l2_256kb();

/// L-NUCA replacing the L2; `levels` in [2,4] gives LN2/LN3/LN4.
system_config lnuca_l3(unsigned levels);

/// 8MB D-NUCA directly under the L1.
system_config dnuca_4x8();

/// L-NUCA between the L1 and the D-NUCA.
system_config lnuca_dnuca(unsigned levels);

/// Resolve a preset by name for manifest-driven sweeps (src/exp/manifest).
/// Accepts the canonical config names ("L2-256KB", "LN3-144KB", "DN-4x8",
/// "LN3 + DN-4x8") and the short aliases the tools already use
/// ("l2", "ln2".."ln4", "dnuca", "ln2+dn".."ln4+dn"), case-insensitively.
/// Returns std::nullopt for anything else.
std::optional<system_config> by_name(const std::string& name);

/// N-core CMP over any single-core preset: private copy-back L1s (MESI,
/// eviction-notifying; system::build normalises the L1 settings for any
/// cores > 1) per core, the base hierarchy's shared level behind
/// a coherence hub whose message latencies match the backend (narrow bus
/// for the conventional L2, abutted links for the L-NUCA fabric, mesh
/// hops for the D-NUCA). `base` must be one of the presets above;
/// `cores` in [2, 32]. Name becomes e.g. "L2-256KB-4c".
system_config cmp(const system_config& base, unsigned cores);

} // namespace presets

/// Apply one dotted-key numeric override to a system_config (the
/// `overrides` axis of a sweep manifest, src/exp/manifest.h). Supported
/// keys are a curated projection of the config structs:
///
///   l1.* / l2.* / l3.*   size_kb, ways, block_bytes, completion_latency,
///                        initiation_interval, ports, banks, mshr_entries,
///                        mshr_secondary, write_buffer_entries
///   fabric.*             levels, mshr_entries, inject_queue_depth,
///                        evict_queue_depth, exit_queue_depth
///   dnuca.*              bank_sets, rows, bank_kb, bank_ways, bank_latency
///   memory.*             first_chunk_latency, inter_chunk_latency,
///                        queue_depth
///   core.*               fetch_width, dispatch_width, commit_width,
///                        rob_size, lsq_size, store_buffer_size,
///                        mispredict_penalty, tlb_entries
///   bus.*                width_bytes, arbitration, response_bytes
///
/// Returns false (with *error naming the key) on an unknown key — a
/// manifest must not silently ignore a mistyped override — and on a zero
/// for a field whose zero would crash, throw or stall the run (sizes,
/// ways, widths, queue and buffer depths; latencies, `banks` and
/// `mshr_secondary` accept zero). The config's
/// name is NOT touched; callers append their own provenance suffix.
bool apply_config_override(system_config& config, const std::string& key,
                           std::uint64_t value, std::string* error);

/// Human name like the paper's: LN3-144KB.
std::string lnuca_config_name(unsigned levels);

} // namespace lnuca::hier
