// CMP coherence hub: MESI over the shared L-NUCA/L2 fabric.
//
// Sits between the N private L1 data caches and whatever shared level the
// hierarchy uses (conventional L2 behind the bus, the L-NUCA fabric, or a
// D-NUCA array). Every L1 points its downstream at the hub; the hub owns
// the inclusive directory (src/coh/directory.h) and turns each L1 miss
// into the MESI transaction it requires:
//
//   read,  dir I   -> fetch below, grant E (sole copy)
//   read,  dir S   -> fetch below (data lives in the shared level), add
//                     the requester to the sharer mask, grant S
//   read,  dir EM  -> downgrade the owner (M data flushes to the shared
//                     level), cache-to-cache forward, both end S
//   RFO,   dir I   -> fetch below, grant M-capable E
//   RFO,   dir S   -> invalidate every other sharer (upgrade: no data
//                     moves; otherwise fetch below in parallel)
//   RFO,   dir EM  -> invalidate the owner, cache-to-cache forward the
//                     (possibly dirty) line - dirty data migrates without
//                     touching the shared level
//   writeback      -> drop the sharer bit / ownership; dirty data (and,
//                     for victim-style fabrics, clean victims too) forward
//                     into the shared level
//
// Invalidation/downgrade messages ride the same request/response paths the
// single-core hierarchy uses: each hop costs the configured latencies, and
// a snoop that lands while the target's fill or eviction is still in
// flight is re-delivered the next cycle (mem::snoop_result::retry).
// Transactions serialise per block through the directory's busy latch.
//
// Hot-path contract: all queues are pre-sized, the directory and the
// transaction table are fixed slabs - an executed cycle allocates nothing
// (bench/micro_hotpath.cpp gates this for the cmp presets).
#pragma once

#include "src/coh/directory.h"
#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/mem/cache.h"
#include "src/mem/request.h"
#include "src/sim/ticked.h"
#include "src/sim/timed_queue.h"

#include <stdexcept>
#include <vector>

namespace lnuca::coh {

struct coherence_config {
    unsigned cores = 2;
    std::uint32_t block_bytes = 32; ///< coherence granule = L1 block
    std::uint32_t request_latency = 2;  ///< L1 -> hub (arbitration + hop)
    std::uint32_t response_latency = 2; ///< hub -> L1 data/ack return
    std::uint32_t snoop_latency = 2;    ///< hub -> peer L1 inv/downgrade
    std::uint32_t c2c_latency = 4;      ///< owner L1 -> requester transfer
    /// Forward clean victims into the shared level. True for victim-style
    /// fabrics (L-NUCA: evictions are its fill path), false when the
    /// shared level refills from below on its own (conventional L2).
    bool forward_clean_victims = false;
    /// Directory slots. 0: sized by the hub from the L1s' reach
    /// (lines + MSHRs per core, doubled) so it can never overflow.
    std::uint32_t directory_entries = 0;
    std::uint64_t seed = 0xc0;
};

/// Thrown by check_invariants() (tests, paranoid engine mode).
class coherence_error : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

class coherence_hub final : public sim::ticked,
                            public mem::mem_port,
                            public mem::mem_client {
public:
    coherence_hub(const coherence_config& config, mem::txn_id_source& ids);

    /// Wire core i's private L1 (i < config.cores, in order).
    void attach_l1(mem::core_id_t core, mem::conventional_cache* l1);
    void set_downstream(mem::mem_port* port) { downstream_ = port; }

    // mem_port (L1 side)
    bool can_accept(const mem::mem_request& request) const override;
    void accept(const mem::mem_request& request) override;
    /// The sampled fast-forward path: runs the same directory transitions
    /// as the timed transactions (plan_request, snooped, grant,
    /// release_copy), landing the plan's snoops synchronously through the
    /// L1s' line transitions (the warm contract guarantees a quiescent
    /// machine, so snoops cannot race or retry), then falls through to the
    /// shared backend's warm_access. Returns the E/M grant and migrated
    /// dirtiness exactly like the detailed response fields the L1's refill
    /// path reads. See DESIGN.md, "Warm coherence".
    mem::warm_result warm_access(const mem::warm_request& request) override;

    // mem_client (shared-level side)
    void respond(const mem::mem_response& response) override;

    // ticked
    void tick(cycle_t now) override;
    cycle_t next_event(cycle_t now) const override;
    std::uint64_t state_digest() const override;

    const coherence_config& config() const { return config_; }
    const counter_set& counters() const { return counters_; }
    const directory& dir() const { return dir_; }
    bool quiescent() const;

    /// Assert every tick (after processing) when enabled - the paranoid
    /// engine preset turns this on (hier::system).
    void set_paranoid(bool on) { paranoid_ = on; }

    /// Directory invariants: at most one M/E owner per block, EM implies a
    /// singleton sharer mask matching the owner, and every sharer bit is
    /// backed by the L1's tags or its in-flight fill/eviction machinery
    /// (and vice versa: no L1 caches a block the directory does not know).
    /// Throws coherence_error naming the violation.
    void check_invariants() const;

    /// Persistent-at-quiescence state: the directory, stats and the
    /// transaction-slot free stack (its order decides future slot
    /// allocation). The txn slab, queues and in-transit writeback list are
    /// empty by the quiesce contract.
    template <class Ar> void serialize(Ar& ar)
    {
        dir_.serialize(ar);
        ar.counters(counters_);
        std::uint64_t free_count = txn_free_.size();
        ar(free_count);
        txn_free_.resize(std::size_t(free_count));
        for (std::int32_t& slot : txn_free_) {
            std::uint32_t bits = std::uint32_t(slot);
            ar(bits);
            slot = std::int32_t(bits);
        }
    }

private:
    struct txn {
        bool live = false;
        addr_t block = no_addr;
        mem::core_id_t requester = 0;
        txn_id_t up_id = 0;   ///< requester L1's miss id (response routing)
        addr_t up_addr = no_addr;
        bool rfo = false;
        unsigned pending_snoops = 0;
        /// A recall/downgrade snoop is the transaction's data source and
        /// has not resolved yet (at most one such snoop per transaction).
        bool data_pending = false;
        bool waiting_below = false;
        txn_id_t down_id = 0; ///< our fetch id at the shared level
        bool peer_data = false;  ///< data arrives cache-to-cache
        bool peer_dirty = false; ///< forwarded line carries modified data
        mem::service_level below_served_by = mem::service_level::none;
        std::uint8_t below_fabric_level = 0;
        bool below_dirty = false;
    };

    struct snoop_msg {
        mem::core_id_t core = 0;
        addr_t block = no_addr;
        bool invalidate = false; ///< false: downgrade (read sharing)
        std::int32_t txn = -1;
    };

    void process_below_responses(cycle_t now);
    void process_snoops(cycle_t now);
    void process_requests(cycle_t now);
    void process_read(cycle_t now, const mem::mem_request& request);
    void process_writeback(cycle_t now, const mem::mem_request& request);
    void drain_downstream();

    // Directory transitions, one definition each, shared by the timed
    // transactions and warm_access(). Only the timed path counts.

    /// What a read or RFO needs before it can be granted: a remote EM
    /// owner that supplies the data (recalled for an RFO, downgraded for a
    /// read), other sharers to invalidate, and whether the data comes from
    /// the shared level.
    struct request_plan {
        mem::core_id_t source = mem::no_core;
        std::uint32_t invalidate = 0;
        bool fetch = false;
    };
    request_plan plan_request(const dir_entry& e, mem::core_id_t core,
                              bool rfo) const;
    /// Drop `core`'s copy from the entry (writeback, invalidation): its
    /// sharer bit, and its ownership if it owned the line.
    void drop_sharer(dir_entry& e, mem::core_id_t core);
    /// A snoop on `core`'s copy resolved with `result` (never retry).
    void snooped(dir_entry& e, mem::core_id_t core, bool invalidate,
                 mem::snoop_result result);
    /// Completion: the requester joins the sharers with E/M (sole copy or
    /// RFO) or S. Returns the exclusive grant.
    bool grant(dir_entry& e, mem::core_id_t core, bool rfo);
    /// An eviction notification from `core`. Returns the entry when a
    /// transaction is in flight on it (the caller checks for a race),
    /// else nullptr (the entry is released once it tracks nothing).
    dir_entry* release_copy(addr_t block, mem::core_id_t core);
    bool forwards_victim(bool dirty) const
    {
        return dirty || config_.forward_clean_victims;
    }

    std::int32_t allocate_txn();
    txn* txn_by_down_id(txn_id_t id);
    void send_snoop(cycle_t now, std::int32_t slot, mem::core_id_t core,
                    bool invalidate);
    void fetch_below(cycle_t now, std::int32_t slot);
    void maybe_finish(cycle_t now, std::int32_t slot);
    void push_writeback_below(cycle_t now, addr_t block, bool dirty,
                              mem::core_id_t core);
    addr_t block_of(addr_t addr) const
    {
        return addr & ~addr_t(config_.block_bytes - 1);
    }

    coherence_config config_;
    mem::txn_id_source& ids_;
    directory dir_;
    std::vector<mem::conventional_cache*> l1s_;
    mem::mem_port* downstream_ = nullptr;

    std::vector<txn> txns_; ///< fixed slab
    std::vector<std::int32_t> txn_free_;
    sim::timed_queue<mem::mem_request> reqs_;
    sim::timed_queue<snoop_msg> snoops_;
    sim::timed_queue<mem::mem_response> below_resp_;
    ring_queue<mem::mem_request> down_pending_; ///< awaiting downstream space
    /// Writebacks accepted but not yet processed: the invariant checker
    /// must treat their sharers as still backed (the copy left the L1 but
    /// its notification is in flight).
    std::vector<std::pair<mem::core_id_t, addr_t>> wb_in_transit_;

    counter_set counters_;
    counter_set::handle h_reads_ = counters_.handle_of("reads");
    counter_set::handle h_rfos_ = counters_.handle_of("rfos");
    counter_set::handle h_upgrades_ = counters_.handle_of("upgrades");
    counter_set::handle h_writebacks_in_ = counters_.handle_of("writebacks_in");
    counter_set::handle h_inv_sent_ = counters_.handle_of("invalidations_sent");
    counter_set::handle h_downgrades_sent_ =
        counters_.handle_of("downgrades_sent");
    counter_set::handle h_snoop_retries_ = counters_.handle_of("snoop_retries");
    counter_set::handle h_c2c_ = counters_.handle_of("c2c_transfers");
    counter_set::handle h_c2c_dirty_ = counters_.handle_of("c2c_dirty");
    counter_set::handle h_fetches_below_ = counters_.handle_of("fetches_below");
    counter_set::handle h_writebacks_below_ =
        counters_.handle_of("writebacks_below");
    counter_set::handle h_busy_retries_ = counters_.handle_of("busy_retries");
    counter_set::handle h_owner_rerequests_ =
        counters_.handle_of("owner_rerequests");
    counter_set::handle h_race_fallbacks_ =
        counters_.handle_of("race_fallbacks");
    counter_set::handle h_untracked_below_ =
        counters_.handle_of("untracked_below_response");

    bool paranoid_ = false;
    std::uint32_t in_flight_ = 0; ///< live transactions
};

} // namespace lnuca::coh
