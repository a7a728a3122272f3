// Programmatic shared-memory scenario library: generates multi-lane trace
// sets exhibiting the coherence-bound access patterns multiprogrammed
// synthetic lanes cannot express - producer/consumer hand-off, lock
// ping-pong, false sharing within a line, migratory ownership, and
// read-only sharing. Lanes are deterministic in (name, params) and feed
// the same trace_stream replay path as captured files.
#pragma once

#include "src/trace/trace_data.h"

#include <memory>
#include <string>
#include <vector>

namespace lnuca::trace {

struct scenario_params {
    unsigned cores = 2;
    std::uint64_t seed = 1;
    /// Rounds of the scenario's sharing kernel per lane.
    std::uint64_t rounds = 256;
    /// Filler instructions (ALU/branch/private-region memory) between
    /// consecutive shared-region touches - the coherence "think time".
    unsigned gap = 200;
    /// Blocks handed over per round (producer/consumer chunk, migratory
    /// traversal length).
    unsigned phase_len = 32;
    /// Shared-region placement and extent. Every lane touches this region;
    /// overlap is the point. Trace lanes carry their own addresses, so the
    /// system build's disjoint per-core layout (synthetic lanes only) does
    /// not re-base it away.
    addr_t shared_base = 0x70000000;
    std::uint64_t shared_blocks = 1024;
    /// Per-lane private working set (disjoint across lanes) the filler
    /// memory operations walk.
    std::uint64_t private_blocks = 2048;
    /// Fraction of filler instructions that are private-region loads/stores.
    double private_fraction = 0.3;
};

/// All scenario names, in a stable order: producer_consumer, ping_pong,
/// false_sharing, migratory, shared_read.
const std::vector<std::string>& scenario_names();

bool is_scenario(const std::string& name);

/// Build the named scenario's lane set (params.cores lanes, equal length).
/// Throws std::invalid_argument for an unknown name.
std::shared_ptr<trace_data> make_scenario(const std::string& name,
                                          const scenario_params& params);

} // namespace lnuca::trace
