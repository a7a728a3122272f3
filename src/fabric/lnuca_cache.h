// The L-NUCA fabric: the paper's contribution.
//
// Sits between the r-tile (a conventional L1 whose misses and evictions it
// absorbs) and the next cache level (L3 or a D-NUCA), exactly like the L2
// it replaces:
//
//   L1 miss        -> broadcast search, one level per cycle; tile hits
//                     extract the block (content exclusion) and transport
//                     it to the r-tile; a global miss is detected one cycle
//                     after the outermost level and forwarded downstream.
//   L1 eviction    -> injected into the replacement network; victims domino
//                     from tile to tile in latency order; only the two top
//                     corner tiles spill to the next level.
//   store miss     -> fire-and-forget: updates a tile in place on a hit or
//                     is forwarded downstream on a global miss ("replaced
//                     blocks + write misses to L3", Fig. 2(c)).
//
// Every tile performs its cache access plus one-hop routing in one cycle;
// transport and replacement use two-entry On/Off link buffers and random
// distributed routing over output links that are all valid by construction.
//
// Hot-path storage contract: per-search state lives in a slab slot shared
// with the MSHR entry (no hash-map node churn), link-arbitration scratch is
// a bitmask plus a stack array, and every queue is a pre-sized ring — an
// executed cycle performs no heap allocation in steady state. A cycle visits
// only the tiles that hold work (the busy-tile mask); the rest would be
// no-ops.
#pragma once

#include "src/common/index_mask.h"
#include "src/common/ring_queue.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/fabric/geometry.h"
#include "src/fabric/tile.h"
#include "src/mem/mshr.h"
#include "src/mem/request.h"
#include "src/sim/ticked.h"
#include "src/sim/timed_queue.h"

#include <vector>

namespace lnuca::fabric {

struct fabric_config {
    unsigned levels = 3; ///< including the r-tile (LN3)
    tile_config tile;
    std::uint32_t mshr_entries = 16;
    std::uint32_t mshr_secondary = 4;
    std::uint32_t inject_queue_depth = 8;
    std::uint32_t evict_queue_depth = 8;
    std::uint32_t exit_queue_depth = 16;
    /// Bound on the next-level request ring (global read misses + fire-and-
    /// forget store misses). Store-streaming lanes can outpace the 1/cycle
    /// drain; at the bound the miss line re-arms the gather for the next
    /// cycle instead of letting the ring regrow (allocation on the hot
    /// path). High-water and backpressure events are surfaced as counters.
    std::uint32_t downstream_queue_depth = 256;
    bool random_routing = true; ///< false: always pick the first output link
                                ///< (dimension-order-like, for the ablation)
    std::uint64_t seed = 0xfab;
};

class lnuca_cache final : public sim::ticked, public mem::mem_port, public mem::mem_client {
public:
    lnuca_cache(const fabric_config& config, mem::txn_id_source& ids);

    void set_upstream(mem::mem_client* client) { upstream_ = client; }
    void set_downstream(mem::mem_port* port) { downstream_ = port; }

    // mem_port (r-tile side)
    bool can_accept(const mem::mem_request& request) const override;
    void accept(const mem::mem_request& request) override;
    mem::warm_result warm_access(const mem::warm_request& request) override;

    // mem_client (next-level side)
    void respond(const mem::mem_response& response) override;

    // ticked
    void tick(cycle_t now) override;
    cycle_t next_event(cycle_t now) const override;
    std::uint64_t state_digest() const override;

    const fabric_config& config() const { return config_; }
    const geometry& geo() const { return geo_; }
    const counter_set& counters() const { return counters_; }
    bool quiescent() const;

    /// Read hits serviced by L-NUCA level `level` (2-based, Table III); 0
    /// for levels outside 2..levels.
    std::uint64_t read_hits_in_level(unsigned level) const;

    /// Transport latency accounting (Table III right): sums of actual and
    /// contention-free cycles over all delivered blocks.
    std::uint64_t transport_actual_cycles() const
    {
        return counters_.value(h_transport_actual_cycles_);
    }
    std::uint64_t transport_min_cycles() const
    {
        return counters_.value(h_transport_min_cycles_);
    }

    /// Total data storage in tiles (for reports): tiles * tile size.
    std::uint64_t tile_capacity_bytes() const;

    /// Tile introspection for tests/examples.
    const tile& tile_at(tile_index i) const { return tiles_[i]; }

    /// True iff `block` currently lives in exactly `copies` places across
    /// all tiles and in-flight buffers (exclusion checker for tests).
    unsigned copies_of(addr_t block) const;

    /// When on, every global miss checks that the block is nowhere in the
    /// fabric (copies_of) and counts a false_global_misses otherwise. The
    /// scan visits every tile and buffer, so only the paranoid engine
    /// preset turns it on (hier::system), as for coherence_hub.
    void set_paranoid(bool on) { paranoid_ = on; }
    bool paranoid() const { return paranoid_; }

    /// Functionally install a block before measurement (no timing): tiles
    /// are tried closest-first, so calling with hottest blocks first yields
    /// the temporal-locality-ordered placement the fabric converges to.
    /// Returns false when every candidate set is full.
    bool prewarm(addr_t addr);

    /// Persistent-at-quiescence state: tile tags/recency, stats and the
    /// routing RNG. Searches, link buffers and queues are empty by the
    /// quiesce contract.
    template <class Ar> void serialize(Ar& ar)
    {
        for (tile& t : tiles_)
            t.serialize(ar);
        ar.counters(counters_);
        ar(rng_);
        std::uint64_t high_water = downstream_queue_high_water_;
        ar(high_water);
        downstream_queue_high_water_ = std::size_t(high_water);
    }

private:
    struct link {
        tile_index target = 0; ///< root_index = the r-tile
        std::uint32_t slot = 0; ///< input fifo index at the target
    };

    /// Per-search bookkeeping. Lives in a slab slot parallel to the MSHR
    /// entry of the same block (see mshr_file::slot_of), so search state is
    /// allocated, found and recycled with the entry — no hash-map nodes.
    struct search_state {
        bool is_write = false;     ///< pure fire-and-forget store miss
        bool write_merged = false; ///< a store merged while in flight
        bool hit = false;
        bool marked = false;
        cycle_t gather_at = 0;
        bool active = false;
        /// txn id of the downstream read issued for this block's global
        /// miss (0 = none outstanding); responses are validated against it.
        txn_id_t downstream_txn = 0;
    };

    /// Output-link arbitration scratch: bitmask over a tile's output links
    /// (wiring degree is tiny — 2-4 links; 32 is a hard structural bound).
    using link_mask = std::uint32_t;
    static constexpr std::size_t max_links = 32;

    void process_downstream_responses(cycle_t now);
    void process_root_arrivals(cycle_t now);
    void inject_searches(cycle_t now);
    void evaluate_tile(cycle_t now, tile_index i);
    void run_replacement(cycle_t now, tile_index i);
    void inject_evictions(cycle_t now);
    void evaluate_global_misses(cycle_t now);
    void drain_downstream_queues(cycle_t now);
    void commit_cycle();
    bool push_transport(cycle_t now, tile_index i, const transport_msg& msg,
                        link_mask& used_outputs);
    bool any_transport_output_free(tile_index i, link_mask used_outputs) const;
    /// A read hit at tile `i` starts its block's transport towards the root
    /// (caller checked any_transport_output_free).
    void send_hit(cycle_t now, tile_index i, unsigned level, addr_t block,
                  bool dirty, link_mask& used_outputs);
    /// No transport output is free: mark the search and re-emit it marked
    /// to the children so the miss line sees the restart.
    void mark_search(tile_index i, const search_msg& msg, search_state& state);
    /// Stage `msg` in the MA register of every tile in `children`, one
    /// broadcast hop each.
    void broadcast(const std::vector<tile_index>& children,
                   const search_msg& msg);

    search_state& state_of(const mem::mshr_entry& entry)
    {
        return search_by_slot_[mshrs_.slot_of(entry)];
    }
    const search_state& state_of(const mem::mshr_entry& entry) const
    {
        return search_by_slot_[mshrs_.slot_of(entry)];
    }

    void respond_to_targets(cycle_t now, const mem::mshr_target* targets,
                            std::uint32_t count, mem::service_level origin,
                            std::uint8_t level, bool dirty);
    std::size_t pick_output(std::size_t available);
    /// The replacement network's link choice: a random On link of
    /// `outputs` (the r-tile's or a tile's), or nullptr when none is On.
    /// Exit tiles have no outputs, so their victims leave the fabric.
    const link* pick_replacement_link(const std::vector<link>& outputs);
    /// The first tile, in search order, whose tags hold `block` (nullptr:
    /// none does).
    mem::tag_array* holder_of(addr_t block);
    void note_downstream_high_water();

    fabric_config config_;
    mem::txn_id_source& ids_;
    geometry geo_;
    std::vector<tile> tiles_;
    /// Tiles holding work (not tile::idle()): set wherever the fabric
    /// stages a search or a block into a tile, cleared at commit once the
    /// tile is idle. tick() evaluates and commits only these tiles.
    index_mask busy_tiles_;
    mem::mshr_file mshrs_;
    std::vector<search_state> search_by_slot_; ///< parallel to the MSHR slab
    counter_set counters_;
    counter_set::handle h_evictions_in_ = counters_.handle_of("evictions_in");
    counter_set::handle h_root_ubuffer_hit_ =
        counters_.handle_of("root_ubuffer_hit");
    counter_set::handle h_read_hit_ = counters_.handle_of("read_hit");
    counter_set::handle h_store_merged_ = counters_.handle_of("store_merged");
    counter_set::handle h_mshr_merge_ = counters_.handle_of("mshr_merge");
    counter_set::handle h_searches_requested_ =
        counters_.handle_of("searches_requested");
    counter_set::handle h_searches_injected_ =
        counters_.handle_of("searches_injected");
    counter_set::handle h_search_broadcast_hops_ =
        counters_.handle_of("search_broadcast_hops");
    counter_set::handle h_tile_tag_lookups_ =
        counters_.handle_of("tile_tag_lookups");
    counter_set::handle h_tile_hits_ = counters_.handle_of("tile_hits");
    counter_set::handle h_tile_data_reads_ =
        counters_.handle_of("tile_data_reads");
    counter_set::handle h_tile_data_writes_ =
        counters_.handle_of("tile_data_writes");
    counter_set::handle h_ubuffer_hits_ = counters_.handle_of("ubuffer_hits");
    counter_set::handle h_store_hits_in_place_ =
        counters_.handle_of("store_hits_in_place");
    counter_set::handle h_store_hits_in_transit_ =
        counters_.handle_of("store_hits_in_transit");
    counter_set::handle h_transport_contention_ =
        counters_.handle_of("transport_contention");
    counter_set::handle h_transport_hops_ =
        counters_.handle_of("transport_hops");
    counter_set::handle h_transport_blocked_ =
        counters_.handle_of("transport_blocked");
    counter_set::handle h_replacement_hops_ =
        counters_.handle_of("replacement_hops");
    counter_set::handle h_replacement_blocked_ =
        counters_.handle_of("replacement_blocked");
    counter_set::handle h_install_conflicts_ =
        counters_.handle_of("install_conflicts");
    counter_set::handle h_eviction_inject_blocked_ =
        counters_.handle_of("eviction_inject_blocked");
    counter_set::handle h_evictions_injected_ =
        counters_.handle_of("evictions_injected");
    counter_set::handle h_miss_line_gathers_ =
        counters_.handle_of("miss_line_gathers");
    counter_set::handle h_search_restarts_ =
        counters_.handle_of("search_restarts");
    counter_set::handle h_global_misses_ = counters_.handle_of("global_misses");
    counter_set::handle h_false_global_misses_ =
        counters_.handle_of("false_global_misses");
    counter_set::handle h_exit_snoop_hits_ =
        counters_.handle_of("exit_snoop_hits");
    counter_set::handle h_write_misses_out_ =
        counters_.handle_of("write_misses_out");
    counter_set::handle h_blocks_delivered_ =
        counters_.handle_of("blocks_delivered");
    counter_set::handle h_fills_from_next_level_ =
        counters_.handle_of("fills_from_next_level");
    counter_set::handle h_untracked_response_ =
        counters_.handle_of("untracked_response");
    counter_set::handle h_untracked_arrival_ =
        counters_.handle_of("untracked_arrival");
    counter_set::handle h_orphan_search_ = counters_.handle_of("orphan_search");
    counter_set::handle h_clean_exits_dropped_ =
        counters_.handle_of("clean_exits_dropped");
    counter_set::handle h_dirty_exits_written_back_ =
        counters_.handle_of("dirty_exits_written_back");
    counter_set::handle h_downstream_backpressure_ =
        counters_.handle_of("downstream_backpressure");
    counter_set::handle h_downstream_queue_high_water_ =
        counters_.handle_of("downstream_queue_high_water");
    /// Transport latency (Table III right): actual and contention-free
    /// cycles summed over every delivered block.
    counter_set::handle h_transport_actual_cycles_ =
        counters_.handle_of("transport_actual_cycles");
    counter_set::handle h_transport_min_cycles_ =
        counters_.handle_of("transport_min_cycles");
    /// read_hits_level_<k> for L-NUCA levels k = 2 .. levels (index k - 2).
    std::vector<counter_set::handle> h_read_hits_level_;
    /// Peak downstream_queue_ occupancy (mirrored into the high-water
    /// counter via delta increments - counter_set is inc-only).
    std::size_t downstream_queue_high_water_ = 0;
    rng rng_;
    bool paranoid_ = false; ///< set_paranoid()

    mem::mem_client* upstream_ = nullptr;
    mem::mem_port* downstream_ = nullptr;

    // Precomputed wiring: per-tile output links with receiver slot indices.
    std::vector<std::vector<link>> d_out_;
    std::vector<std::vector<link>> u_out_;
    std::vector<link> root_u_out_; ///< r-tile eviction targets
    std::vector<noc::sync_fifo<transport_msg>> root_arrivals_;

    // Request-side queues (pre-sized rings; see constructor).
    ring_queue<search_msg> inject_queue_;
    ring_queue<replace_msg> evict_queue_;          ///< r-tile victims entering
    ring_queue<replace_msg> exit_queue_;           ///< corner victims leaving
    ring_queue<mem::mem_request> downstream_queue_; ///< global misses / writes
    sim::timed_queue<mem::mem_response> refills_;

    /// Per-level tile lists in closest-first order: the search order of
    /// the warm path and the placement order of prewarm().
    std::vector<std::vector<tile_index>> tiles_by_level_; ///< index: level
};

} // namespace lnuca::fabric
