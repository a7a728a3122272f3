// Energy accounting for a finished run: static energy integrates each
// structure's leakage over the run time; dynamic energy charges per-event
// costs from the component counters. Produces the stacked breakdown of
// Figs. 4(b) and 5(b): {dynamic, static L1/r-tile, static L2-or-tiles,
// static L3-or-D-NUCA}.
#pragma once

#include "src/common/stats.h"
#include "src/common/types.h"

#include <cstdint>

namespace lnuca::power {

struct energy_breakdown {
    double dynamic_j = 0.0;
    double static_l1_j = 0.0;      ///< L1 / r-tile
    double static_storage_j = 0.0; ///< L2 or the L-NUCA tiles ("RESTT")
    double static_l3_j = 0.0;      ///< L3 or the D-NUCA bank array

    double total() const
    {
        return dynamic_j + static_l1_j + static_storage_j + static_l3_j;
    }
};

/// Inputs harvested from the simulated components after a run. Only the
/// fields relevant to the simulated hierarchy need to be filled in.
struct energy_inputs {
    cycle_t cycles = 0;

    // L1 / r-tile events.
    std::uint64_t l1_accesses = 0;

    // Conventional L2 events (zero in L-NUCA configurations).
    bool has_l2 = false;
    std::uint64_t l2_accesses = 0;

    // L-NUCA fabric events (zero in conventional configurations).
    unsigned fabric_tiles = 0;
    std::uint64_t tile_tag_lookups = 0;
    std::uint64_t tile_data_accesses = 0; ///< extractions + installs
    std::uint64_t transport_hops = 0;
    std::uint64_t replacement_hops = 0;
    std::uint64_t search_hops = 0;

    // L3 events (zero in pure D-NUCA configurations).
    bool has_l3 = false;
    std::uint64_t l3_accesses = 0;

    // D-NUCA events.
    unsigned dnuca_banks = 0;
    std::uint64_t bank_accesses = 0;
    std::uint64_t dnuca_flit_hops = 0;

    // Main memory transfers.
    std::uint64_t memory_transfers = 0;

    /// f(member) once per event count, the fields summed from component
    /// counters. The checkpoint layout (the driver section carries the
    /// events summed so far) and the sampled driver's extrapolation both
    /// walk this list; the structure fields above are set from the built
    /// hierarchy.
    template <class F> static void for_each_event(F&& f)
    {
        f(&energy_inputs::l1_accesses);
        f(&energy_inputs::l2_accesses);
        f(&energy_inputs::tile_tag_lookups);
        f(&energy_inputs::tile_data_accesses);
        f(&energy_inputs::transport_hops);
        f(&energy_inputs::replacement_hops);
        f(&energy_inputs::search_hops);
        f(&energy_inputs::l3_accesses);
        f(&energy_inputs::bank_accesses);
        f(&energy_inputs::dnuca_flit_hops);
        f(&energy_inputs::memory_transfers);
    }

    template <class Ar> void serialize(Ar& ar)
    {
        for_each_event([&](auto member) { ar(this->*member); });
    }
};

energy_breakdown compute_energy(const energy_inputs& in);

} // namespace lnuca::power
