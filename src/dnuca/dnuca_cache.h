// Dynamic NUCA baseline (Kim et al., ASPLOS'02) per the paper's Table I:
// an 8 MB cache of 32 banks (256 KB, 2-way, 128 B blocks) arranged as
// 8 bank sets (columns) x 4 rows on a wormhole 2D mesh with 4 virtual
// channels and 32 B flits (1-flit requests, 5-flit data replies).
//
// Policies follow the SS-performance configuration: simple mapping (block
// -> column), multicast search across the column's four banks (realised as
// per-bank probe flits from the single injection point), LRU within a
// bank, one-row generational promotion on each read hit, insertion at the
// farthest (tail) row, and zero-copy replacement (tail victims leave the
// cache).
//
// The mesh has an extra row 0 that carries no banks: it is the controller
// rail; the controller is the single injection/ejection point at (0,0) -
// exactly the structural bottleneck the L-NUCA paper criticises.
#pragma once

#include "src/common/index_mask.h"
#include "src/common/ring_queue.h"
#include "src/common/slot_index.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/mem/mshr.h"
#include "src/mem/request.h"
#include "src/mem/tag_array.h"
#include "src/noc/vc_router.h"
#include "src/sim/ticked.h"
#include "src/sim/timed_queue.h"

#include <memory>
#include <optional>
#include <vector>

namespace lnuca::dnuca {

struct dnuca_config {
    unsigned bank_sets = 8; ///< sparse sets = mesh columns
    unsigned rows = 4;      ///< banks per set
    std::uint64_t bank_bytes = 256_KiB;
    std::uint32_t bank_ways = 2;
    std::uint32_t block_bytes = 128;
    std::uint32_t bank_latency = 3;    ///< completion cycles
    std::uint32_t bank_initiation = 3; ///< cycles between bank accesses
    std::uint32_t flit_bytes = 32;
    noc::router_config router{4, 4}; ///< 4 VCs, 4-flit buffers
    std::uint32_t mshr_entries = 16;
    std::uint32_t mshr_secondary = 4;
    std::string policy = "lru";
    std::uint64_t seed = 0xd0ca;
};

class dnuca_cache final : public sim::ticked, public mem::mem_port, public mem::mem_client {
public:
    dnuca_cache(const dnuca_config& config, mem::txn_id_source& ids);

    void set_upstream(mem::mem_client* client) { upstream_ = client; }
    void set_downstream(mem::mem_port* port) { downstream_ = port; }

    // mem_port
    bool can_accept(const mem::mem_request& request) const override;
    void accept(const mem::mem_request& request) override;
    mem::warm_result warm_access(const mem::warm_request& request) override;

    // mem_client (memory side)
    void respond(const mem::mem_response& response) override;

    // ticked
    void tick(cycle_t now) override;
    cycle_t next_event(cycle_t now) const override;
    std::uint64_t state_digest() const override;

    const dnuca_config& config() const { return config_; }
    const counter_set& counters() const { return counters_; }
    const noc::mesh_network& mesh() const { return *mesh_; }
    std::uint64_t size_bytes() const
    {
        return std::uint64_t(config_.bank_sets) * config_.rows *
               config_.bank_bytes;
    }
    /// Read hits per row (promotion effectiveness; row 1 = closest); 0 for
    /// rows outside 1..rows.
    std::uint64_t hits_in_row(unsigned row) const;
    bool quiescent() const;
    /// Bank array at (column, row), rows 1..rows (tests, introspection).
    const mem::tag_array& bank_tags(unsigned column, unsigned row) const
    {
        return *banks_[bank_index(column, row)].tags;
    }

    /// Functionally install a block (no timing, no traffic): used to warm
    /// the arrays before measurement. Spreads lines round-robin over rows.
    void prewarm(addr_t addr);

    /// Persistent-at-quiescence state: bank tags + schedule anchors, stats,
    /// the write-combining filter, packet/group id cursors, the mesh
    /// counters and every injector's VC rotation cursor (it advances per
    /// packet and keeps its position between packets, so it survives an
    /// empty queue). Request tracking, probes and flit buffers are empty by
    /// the quiesce contract.
    template <class Ar> void serialize(Ar& ar)
    {
        for (bank& b : banks_) {
            b.tags->serialize(ar);
            ar(b.busy_until);
            ar(b.outbox.vc);
        }
        ar.counters(counters_);
        mesh_->serialize(ar);
        ar(written_lines_);
        std::uint64_t cursor = written_cursor_;
        ar(cursor);
        written_cursor_ = std::size_t(cursor);
        ar(next_packet_);
        ar(next_group_);
        ar(controller_outbox_.vc);
        ar(controller_write_outbox_.vc);
    }

private:
    /// Flit source with wormhole injection state: flits of one packet stay
    /// on one VC, and packets never interleave within a queue.
    struct injector {
        ring_queue<noc::flit> queue;
        std::uint32_t vc = 0;
        bool mid_packet = false;
    };

    struct bank {
        std::unique_ptr<mem::tag_array> tags;
        ring_queue<noc::flit> probes;       ///< read probes awaiting the array
        ring_queue<noc::flit> write_probes; ///< writes yield to reads
        cycle_t busy_until = 0;
        injector outbox;                ///< flits waiting to inject
        sim::timed_queue<noc::flit> lookups; ///< probes inside the array
    };

    /// One probe set in flight (a requests_ slot; group 0 = free slot).
    struct request_state {
        std::uint64_t group = 0; ///< id the set's probe flits carry
        addr_t block = no_addr;
        unsigned miss_replies = 0;
        bool is_demand_read = false; ///< expects data back
        bool is_write = false;
        bool is_writeback = false;
        bool dirty = false;
    };

    noc::coord bank_coord(unsigned column, unsigned row) const
    {
        return {int(column), int(row)}; // rows 1..config_.rows hold banks
    }
    /// Banks are numbered row-major from row 1: bank index + bank_sets is
    /// the router index of the bank's mesh node.
    std::size_t bank_index(unsigned column, unsigned row) const
    {
        return std::size_t(row - 1) * config_.bank_sets + column;
    }
    bank& bank_at(unsigned column, unsigned row)
    {
        return banks_[bank_index(column, row)];
    }
    static bool idle(const bank& b)
    {
        return b.probes.empty() && b.write_probes.empty() &&
               b.lookups.empty() && b.outbox.queue.empty();
    }
    unsigned column_of(addr_t block) const
    {
        return unsigned((block >> block_shift_) % config_.bank_sets);
    }
    /// Bank arrays index sets with the bits *above* the column-select bits;
    /// store bank-local addresses so every set of a bank is usable.
    addr_t to_bank_addr(addr_t block) const
    {
        return ((block >> block_shift_) / config_.bank_sets) << block_shift_;
    }
    addr_t from_bank_addr(addr_t local, unsigned column) const
    {
        return ((local >> block_shift_) * config_.bank_sets + column)
               << block_shift_;
    }
    std::uint32_t flits_for_block() const
    {
        return 1 + (config_.block_bytes + config_.flit_bytes - 1) /
                       config_.flit_bytes;
    }

    void process_memory_responses(cycle_t now);
    void eject_and_handle(cycle_t now);
    void run_banks(cycle_t now);
    void controller_flit(cycle_t now, const noc::flit& f);
    void install_at_tail(addr_t block, bool dirty);
    void promote(cycle_t now, unsigned column, unsigned row, addr_t block);
    // Content transitions shared by the timed path and warm_access().
    /// The promotion swap of a block just hit in bank (column, row);
    /// returns a block pushed out of the column.
    std::optional<mem::evicted_line> swap_up(unsigned column, unsigned row,
                                             addr_t local);
    /// Insertion at the farthest row; returns the tail victim.
    std::optional<mem::evicted_line> tail_insert(addr_t block, bool dirty);
    /// Row (1..rows) whose bank holds `local`, with a recency touch; 0 on
    /// a miss in every row.
    unsigned hit_row(unsigned column, addr_t local);
    mem::mem_request writeback_of(const mem::evicted_line& victim,
                                  unsigned column);
    void inject_from(injector& from, noc::coord at);
    void drain_memory_queue(cycle_t now);
    void send_packet(injector& from, noc::packet_kind kind, noc::coord src,
                     noc::coord dst, addr_t block, std::uint64_t group,
                     std::uint32_t flit_count, cycle_t now);
    void open_request(const request_state& state);
    void close_request(std::uint32_t slot);
    void grow_requests();

    dnuca_config config_;
    /// log2 of the block size (the block-number shift of column_of() and
    /// the bank-local addresses) and of the sets per bank (prewarm()'s row
    /// choice).
    unsigned block_shift_ = 0;
    unsigned bank_set_shift_ = 0;
    mem::txn_id_source& ids_;
    counter_set counters_;
    counter_set::handle h_read_probes_ = counters_.handle_of("read_probes");
    counter_set::handle h_write_probes_ = counters_.handle_of("write_probes");
    counter_set::handle h_writes_coalesced_ =
        counters_.handle_of("writes_coalesced");
    counter_set::handle h_writes_filtered_ =
        counters_.handle_of("writes_filtered");
    counter_set::handle h_mshr_merge_ = counters_.handle_of("mshr_merge");
    counter_set::handle h_inject_stall_ = counters_.handle_of("inject_stall");
    counter_set::handle h_flits_injected_ =
        counters_.handle_of("flits_injected");
    counter_set::handle h_bank_lookups_ = counters_.handle_of("bank_lookups");
    counter_set::handle h_bank_read_hits_ =
        counters_.handle_of("bank_read_hits");
    counter_set::handle h_bank_write_hits_ =
        counters_.handle_of("bank_write_hits");
    counter_set::handle h_bank_writes_ = counters_.handle_of("bank_writes");
    counter_set::handle h_promotions_ = counters_.handle_of("promotions");
    counter_set::handle h_promotion_spills_ =
        counters_.handle_of("promotion_spills");
    counter_set::handle h_migrations_delivered_ =
        counters_.handle_of("migrations_delivered");
    counter_set::handle h_tail_evictions_ =
        counters_.handle_of("tail_evictions");
    counter_set::handle h_read_hits_ = counters_.handle_of("read_hits");
    counter_set::handle h_read_misses_ = counters_.handle_of("read_misses");
    counter_set::handle h_write_installs_ =
        counters_.handle_of("write_installs");
    counter_set::handle h_fills_from_memory_ =
        counters_.handle_of("fills_from_memory");
    counter_set::handle h_untracked_response_ =
        counters_.handle_of("untracked_response");
    /// Nacks and write acks whose probe set already completed. Expected:
    /// after an early hit in a near row, the farther banks' nacks arrive
    /// once the request has been retired.
    counter_set::handle h_orphan_reply_ = counters_.handle_of("orphan_reply");
    counter_set::handle h_unexpected_bank_flit_ =
        counters_.handle_of("unexpected_bank_flit");
    counter_set::handle h_unexpected_controller_flit_ =
        counters_.handle_of("unexpected_controller_flit");
    /// Flits forwarded router to router (mesh_network::step).
    counter_set::handle h_hops_forwarded_ = counters_.handle_of("flit_hops");
    /// read_hits_row_<r> for bank rows r = 1 .. rows (index r - 1).
    std::vector<counter_set::handle> h_read_hits_row_;

    mem::mem_client* upstream_ = nullptr;
    mem::mem_port* downstream_ = nullptr;

    std::unique_ptr<noc::mesh_network> mesh_;
    std::vector<bank> banks_;
    /// Banks with probes, lookups or outbox flits (by bank index). tick()
    /// visits only these, in bank index order; quiet banks leave the set
    /// after injection.
    index_mask active_banks_;
    injector controller_outbox_;        ///< read probes (priority)
    injector controller_write_outbox_;  ///< write probes (background)
    ring_queue<mem::mem_request> memory_queue_; ///< misses + writebacks out
    mem::mshr_file mshrs_;
    /// Parallel to the MSHR slab: txn id of the memory read issued for the
    /// entry's block (0 = none). A memory response is matched by block via
    /// mshrs_.find and validated against it (the fabric's downstream_txn
    /// idiom), so no txn -> block map is needed.
    std::vector<txn_id_t> memory_txn_;
    /// Probe sets in flight: a slab recycled through a free stack and found
    /// by the monotonic group id their flits carry, so a late nack of a
    /// retired set finds nothing (orphan_reply) even once its slot is
    /// reused. Starts at 4 x mshr_entries slots and doubles only when full.
    std::vector<request_state> requests_;
    std::vector<std::uint32_t> free_requests_; ///< free slot stack
    slot_index request_index_;                 ///< group id -> slot
    /// Write probe sets in flight, block -> slot: later stores to the same
    /// 128B line coalesce instead of multicasting another probe set.
    slot_index active_writes_;
    /// Controller-side write-combining filter: lines recently confirmed
    /// present-and-dirty absorb further stores without probing the banks.
    std::vector<addr_t> written_lines_;
    std::size_t written_cursor_ = 0;
    sim::timed_queue<mem::mem_response> memory_responses_;
    std::uint64_t next_packet_ = 1;
    std::uint64_t next_group_ = 1;
};

} // namespace lnuca::dnuca
