// Conventional set-associative cache with Table-I-style timing:
// completion latency (access begins -> result available), initiation
// interval per port, MSHRs with secondary-miss merging, a coalescing write
// buffer towards the next level, write-through or copy-back policy.
//
// Timing contract (see sim/engine.h): upstream components tick earlier in
// the cycle, so accept() calls land in the same cycle and responses are
// observed one cycle after they are stamped, which makes a hit's
// load-to-use latency exactly `completion_latency`.
#pragma once

#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/mem/mshr.h"
#include "src/mem/request.h"
#include "src/mem/tag_array.h"
#include "src/mem/write_buffer.h"
#include "src/sim/ticked.h"
#include "src/sim/timed_queue.h"

#include <optional>
#include <string>

namespace lnuca::mem {

struct cache_config {
    std::string name = "cache";
    std::uint64_t size_bytes = 32_KiB;
    std::uint32_t ways = 4;
    std::uint32_t block_bytes = 32;
    std::uint32_t completion_latency = 2; ///< access start -> result
    std::uint32_t initiation_interval = 1; ///< per-port issue spacing
    std::uint32_t ports = 1;
    /// Independent line-interleaved banks; the initiation interval applies
    /// per bank (large LLC arrays are multi-banked).
    std::uint32_t banks = 1;
    bool write_through = false; ///< true: L1-style write-through no-allocate
    bool write_allocate = true; ///< copy-back caches: allocate on store miss?
    bool writeback_clean = false; ///< forward clean victims too (victim/
                                  ///< exclusive hierarchies, e.g. the r-tile)
    bool serial_access = false; ///< tag-then-data (energy model input)
    std::uint32_t mshr_entries = 16;
    std::uint32_t mshr_secondary = 4;
    std::uint32_t write_buffer_entries = 32;
    std::uint32_t fills_per_cycle = 1;
    std::string policy = "lru";
    std::uint64_t seed = 0x5eed;
    service_level level_tag = service_level::l2;
    /// CMP mode (private L1 under a coh::coherence_hub): track MESI
    /// permission per line, issue read-for-ownership on store misses and
    /// upgrades on store hits to Shared lines, and answer snoops. Off for
    /// every single-core hierarchy — the timing paths are then untouched.
    bool coherent = false;
    /// Which core this private cache belongs to (stamped on every
    /// downstream request so the hub can route and bookkeep).
    core_id_t core_id = 0;
};

/// Outcome of a hub-initiated snoop (invalidate / downgrade).
enum class snoop_result : std::uint8_t {
    not_present,   ///< no copy here (possibly already evicted)
    applied_clean, ///< copy dropped/downgraded; it was clean
    applied_dirty, ///< copy dropped/downgraded; it carried modified data
    retry,         ///< transient (fill or writeback in flight) - retry
};

class conventional_cache final : public sim::ticked, public mem_port, public mem_client {
public:
    conventional_cache(const cache_config& config, txn_id_source& ids);

    /// Wire the component above (receives our responses) and below
    /// (receives our misses and write traffic). Downstream may be null for
    /// a last level backed by nothing (tests).
    void set_upstream(mem_client* client) { upstream_ = client; }
    void set_downstream(mem_port* port) { downstream_ = port; }

    // mem_port (upper side)
    bool can_accept(const mem_request& request) const override;
    void accept(const mem_request& request) override;
    warm_result warm_access(const warm_request& request) override;

    // mem_client (lower side)
    void respond(const mem_response& response) override;

    // ticked
    void tick(cycle_t now) override;
    cycle_t next_event(cycle_t now) const override;
    std::uint64_t state_digest() const override;

    const cache_config& config() const { return config_; }
    const counter_set& counters() const { return counters_; }
    const tag_array& tags() const { return tags_; }
    tag_array& tags() { return tags_; }
    bool quiescent() const; ///< no in-flight work (drain detection)

    /// Coherence snoops (hub-initiated, coherent caches only): the retry
    /// guards and counters around invalidate_line() / downgrade_line().
    /// Both ask for a retry while a fill or an eviction writeback for the
    /// block is in flight - the hub re-delivers next cycle.
    snoop_result snoop_invalidate(addr_t addr);
    snoop_result snoop_downgrade(addr_t addr);

    /// The line transitions of the snoops, shared by the timed snoops above
    /// and the coherence hub's warm path: invalidate drops the line,
    /// downgrade strips write permission and cleans it (MESI M/E -> S).
    /// Both report whether modified data left, never `retry`, count
    /// nothing, and drop the warm elision memo when it covers the block.
    snoop_result invalidate_line(addr_t addr);
    snoop_result downgrade_line(addr_t addr);

    /// Coherence invariant probe: the directory may list this cache as a
    /// sharer iff the block is resident or still moving through the fill /
    /// eviction machinery (see coh::coherence_hub::check_invariants).
    bool holds_or_in_flight(addr_t addr) const;

    /// Persistent-at-quiescence state: tags, stats, schedule anchors and
    /// the warm-path elision caches. MSHRs, write buffers and the
    /// lookup/refill queues are empty by the quiesce contract.
    template <class Ar> void serialize(Ar& ar)
    {
        tags_.serialize(ar);
        ar.counters(counters_);
        ar(port_free_);
        ar(now_);
        ar(warm_last_block_);
        ar(warm_last_kind_);
        ar(warm_wb_);
        std::uint64_t warm_wb_pos = warm_wb_pos_;
        ar(warm_wb_pos);
        warm_wb_pos_ = std::size_t(warm_wb_pos);
        ar(warm_state_stale_);
    }

private:
    struct pending_access {
        mem_request request;
        bool needs_response = true;
        bool counted = false; ///< statistics recorded (retries skip them)
    };

    void process_lookup(cycle_t now, pending_access access);
    void drain_input_writes(cycle_t now);
    std::size_t bank_of(addr_t addr) const;
    void handle_read_like(cycle_t now, pending_access access);
    void handle_write_through_store(cycle_t now, pending_access access);
    void handle_incoming_writeback(cycle_t now, const pending_access& access);
    void issue_misses(cycle_t now);
    void drain_write_buffer(cycle_t now);
    void process_refills(cycle_t now);
    void respond_up(cycle_t now, const mshr_target& target, service_level origin,
                    std::uint8_t fabric_level);
    bool snoop_must_wait(addr_t block);
    /// Install a fill or an incoming writeback; coherent caches also set
    /// the line's MESI permission. Returns the displaced victim.
    std::optional<evicted_line> install_line(addr_t addr, bool dirty,
                                             bool exclusive);
    /// Victims that leave for the next level: dirty ones, and clean ones
    /// too in victim/exclusive hierarchies.
    bool writes_back(const evicted_line& victim) const
    {
        return victim.dirty || config_.writeback_clean;
    }
    void queue_victim(const evicted_line& victim);
    bool warm_fill(addr_t addr, bool write);
    void warm_write_back(const std::optional<evicted_line>& victim);
    void forget_warm_block(addr_t block)
    {
        if (block == warm_last_block_)
            warm_last_block_ = no_addr;
    }

    cache_config config_;
    txn_id_source& ids_;
    tag_array tags_;
    mshr_file mshrs_;
    write_buffer wb_;
    counter_set counters_;
    counter_set::handle h_accesses_ = counters_.handle_of("accesses");
    counter_set::handle h_reads_ = counters_.handle_of("reads");
    counter_set::handle h_writes_ = counters_.handle_of("writes");
    counter_set::handle h_read_hit_ = counters_.handle_of("read_hit");
    counter_set::handle h_write_hit_ = counters_.handle_of("write_hit");
    counter_set::handle h_read_miss_ = counters_.handle_of("read_miss");
    counter_set::handle h_write_miss_ = counters_.handle_of("write_miss");
    counter_set::handle h_wb_hit_ = counters_.handle_of("wb_hit");
    counter_set::handle h_mshr_merge_ = counters_.handle_of("mshr_merge");
    counter_set::handle h_mshr_secondary_stall_ =
        counters_.handle_of("mshr_secondary_stall");
    counter_set::handle h_mshr_full_stall_ =
        counters_.handle_of("mshr_full_stall");
    counter_set::handle h_miss_issued_ = counters_.handle_of("miss_issued");
    counter_set::handle h_fills_ = counters_.handle_of("fills");
    counter_set::handle h_evictions_ = counters_.handle_of("evictions");
    counter_set::handle h_writeback_in_ = counters_.handle_of("writeback_in");
    counter_set::handle h_writeback_out_ = counters_.handle_of("writeback_out");
    counter_set::handle h_write_through_out_ =
        counters_.handle_of("write_through_out");
    counter_set::handle h_wb_drained_ = counters_.handle_of("wb_drained");
    counter_set::handle h_wb_full_stall_ = counters_.handle_of("wb_full_stall");
    counter_set::handle h_refill_wb_stall_ =
        counters_.handle_of("refill_wb_stall");
    counter_set::handle h_untracked_response_ =
        counters_.handle_of("untracked_response");
    // Coherence (coherent mode only; registered either way).
    counter_set::handle h_upgrade_miss_ = counters_.handle_of("upgrade_miss");
    counter_set::handle h_snoop_inv_ = counters_.handle_of("snoop_inv");
    counter_set::handle h_snoop_inv_dirty_ =
        counters_.handle_of("snoop_inv_dirty");
    counter_set::handle h_snoop_downgrade_ =
        counters_.handle_of("snoop_downgrade");
    counter_set::handle h_snoop_retry_ = counters_.handle_of("snoop_retry");

    bool pending_fill(addr_t block) const;
    void pending_fill_remove(addr_t block);

    mem_client* upstream_ = nullptr;
    mem_port* downstream_ = nullptr;

    /// Coherent mode: blocks whose fill response has been granted (sits in
    /// refills_) but not yet installed. A snoop landing in that window
    /// must wait for the install - the grant already promised this cache
    /// the line - or the fill would re-install E/M behind the directory's
    /// back (see snoop_invalidate). Empty for non-coherent caches.
    std::vector<addr_t> pending_fill_blocks_;

    std::vector<cycle_t> port_free_; ///< per-port next-free cycle
    sim::timed_queue<pending_access> lookups_;
    sim::timed_queue<mem_response> refills_;
    /// Incoming writes/writebacks wait here (Table I write buffers) and
    /// drain into the array only when a port is otherwise idle; reads
    /// snoop this queue so buffered data is visible.
    ring_queue<pending_access> input_writes_;
    cycle_t now_ = 0; ///< cycle of the current/last tick (for can_accept)

    // Consecutive-duplicate elision on the warm path: sequential runs touch
    // the same block several times in a row, and repeating a hit on the MRU
    // block (or re-dirtying a just-dirtied one) is a state no-op - skipping
    // exact consecutive repeats is lossless, not an approximation.
    addr_t warm_last_block_ = no_addr;
    access_kind warm_last_kind_ = access_kind::writeback;
    // Warm-path stand-in for the outgoing write buffer's per-block
    // coalescing: a store whose block was among the last
    // `write_buffer_entries` forwarded store blocks coalesces (no second
    // downstream write), and a read to such a block is a buffer hit (served
    // without touching tags, like the detailed wb snoop). Without this, the
    // warm path over-weights store blocks in the next level's recency.
    bool warm_wb_contains(addr_t block) const;
    void warm_wb_remember(addr_t block);
    std::vector<addr_t> warm_wb_;
    std::size_t warm_wb_pos_ = 0;
    /// Set by tick(): the detailed path moved lines / drained the real
    /// write buffer, so the warm-path caches above are invalid until the
    /// next warm access resets them.
    bool warm_state_stale_ = false;
};

} // namespace lnuca::mem
