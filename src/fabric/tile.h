// One L-NUCA tile: a small one-cycle cache plus the per-link latches and
// buffers of Fig. 3 - the Miss Address (MA) pipeline register, downstream
// (transport) buffers and upstream (replacement) buffers.
//
// Tiles hold state only; the fabric (lnuca_cache) drives the per-cycle
// search/transport/replacement operations because routing needs the global
// topology.
#pragma once

#include "src/common/stats.h"
#include "src/fabric/messages.h"
#include "src/mem/tag_array.h"
#include "src/noc/fifo.h"

#include <optional>
#include <vector>

namespace lnuca::fabric {

struct tile_config {
    std::uint64_t size_bytes = 8_KiB;
    std::uint32_t ways = 2;
    std::uint32_t block_bytes = 32;
    std::string policy = "lru";
    std::uint64_t seed = 0x5eed;
    std::uint32_t buffer_depth = 2; ///< per-link U/D buffer entries
};

class tile {
public:
    tile(const tile_config& config, unsigned transport_in_links,
         unsigned replacement_in_links)
        : cache({config.size_bytes, config.ways, config.block_bytes,
                 config.policy, config.seed}),
          d_in(transport_in_links, noc::sync_fifo<transport_msg>(config.buffer_depth)),
          u_in(replacement_in_links, noc::sync_fifo<replace_msg>(config.buffer_depth))
    {
    }

    /// Latch the staged MA register and commit all link buffers; called once
    /// per fabric cycle after every tile has been evaluated.
    void commit()
    {
        ma = ma_next;
        ma_next.reset();
        for (auto& fifo : d_in)
            fifo.commit();
        for (auto& fifo : u_in)
            fifo.commit();
    }

    /// No search latched or staged, no buffered block (committed or
    /// staged) and no pending install: evaluating this tile is a no-op and
    /// so is committing it. Between cycles, the fabric's busy-tile mask
    /// holds exactly the tiles for which this is false.
    bool idle() const
    {
        if (ma.has_value() || ma_next.has_value() || phase != repl_phase::idle)
            return false;
        for (const auto& fifo : d_in)
            if (!fifo.idle())
                return false;
        for (const auto& fifo : u_in)
            if (!fifo.idle())
                return false;
        return true;
    }

    /// Search for `block` among in-transit replacement blocks (the U-buffer
    /// address comparators of Fig. 3(a)).
    const replace_msg* u_buffer_find(addr_t block) const
    {
        for (const auto& fifo : u_in)
            if (const auto* m =
                    fifo.find([&](const replace_msg& r) { return r.block == block; }))
                return m;
        return nullptr;
    }

    mem::tag_array cache;
    std::optional<search_msg> ma;      ///< request being processed this cycle
    std::optional<search_msg> ma_next; ///< staged by the parent this cycle
    std::vector<noc::sync_fifo<transport_msg>> d_in;
    std::vector<noc::sync_fifo<replace_msg>> u_in;

    /// Two-cycle replacement operation state (Section III-C(c)). The
    /// fabric resets pending_u/pending_block whenever phase returns to
    /// idle so the quiescent image is canonical (state digests would
    /// otherwise see stale values a checkpoint restore cannot reproduce).
    enum class repl_phase : std::uint8_t { idle, write_pending };
    repl_phase phase = repl_phase::idle;
    std::size_t pending_u = 0; ///< which u_in fifo the pending install reads
    addr_t pending_block = no_addr;
    std::size_t repl_rotate = 0; ///< fairness pointer over u_in fifos

    /// Checkpoint support: tags + the fairness pointer. MA registers, link
    /// buffers and the replacement phase are empty/idle at quiescence.
    template <class Ar> void serialize(Ar& ar)
    {
        cache.serialize(ar);
        std::uint64_t rotate = repl_rotate;
        ar(rotate);
        repl_rotate = std::size_t(rotate);
    }
};

} // namespace lnuca::fabric
