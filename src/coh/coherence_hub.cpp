#include "src/coh/coherence_hub.h"

#include "src/common/log.h"

#include <string>

namespace lnuca::coh {

coherence_hub::coherence_hub(const coherence_config& config,
                             mem::txn_id_source& ids)
    : config_(config),
      ids_(ids),
      dir_(config.directory_entries != 0 ? config.directory_entries
                                         : config.cores * 8192),
      l1s_(config.cores, nullptr),
      txns_(std::size_t(config.cores) * 32)
{
    if (config_.cores < 2 || config_.cores > mem::max_cores)
        throw std::invalid_argument("coherence hub needs 2..32 cores");

    txn_free_.reserve(txns_.size());
    for (std::size_t slot = txns_.size(); slot-- > 0;)
        txn_free_.push_back(std::int32_t(slot));
    const std::size_t req_bound = std::size_t(config_.cores) * 64;
    reqs_.reserve(2 * req_bound);
    snoops_.reserve(req_bound);
    below_resp_.reserve(req_bound);
    down_pending_.reserve(2 * req_bound);
    wb_in_transit_.reserve(req_bound);
}

void coherence_hub::attach_l1(mem::core_id_t core,
                              mem::conventional_cache* l1)
{
    if (core >= l1s_.size())
        throw std::invalid_argument("attach_l1: core id out of range");
    l1s_[core] = l1;
}

bool coherence_hub::can_accept(const mem::mem_request& request) const
{
    (void)request;
    return reqs_.size() < std::size_t(config_.cores) * 64;
}

void coherence_hub::accept(const mem::mem_request& request)
{
    if (request.kind == mem::access_kind::writeback)
        wb_in_transit_.emplace_back(request.core, block_of(request.addr));
    reqs_.push(request.created_at + config_.request_latency, request);
}

mem::warm_result coherence_hub::warm_access(const mem::warm_request& request)
{
    // The directory transitions of process_writeback(), process_read(),
    // process_snoops() and maybe_finish() applied at once, with the plan's
    // snoops landing synchronously: the warm contract guarantees a
    // quiescent machine, so nothing is in flight, nothing races, and
    // `retry` cannot occur. No transactions, no queues, no counters.
    const addr_t block = block_of(request.addr);
    const mem::core_id_t core = request.core;

    if (request.kind == mem::access_kind::writeback) {
        release_copy(block, core);
        if (forwards_victim(request.dirty) && downstream_ != nullptr)
            downstream_->warm_access({block, mem::access_kind::writeback,
                                      request.dirty, false, core});
        return {};
    }

    dir_entry& e = dir_.get_or_create(block);
    // A plain warm write can only come from a non-coherent upper level;
    // treat it as a read-for-ownership so the directory stays sound.
    const bool rfo =
        request.exclusive || request.kind == mem::access_kind::write;
    const request_plan plan = plan_request(e, core, rfo);
    mem::warm_result result;
    bool fetch = plan.fetch;
    if (plan.source != mem::no_core) {
        mem::conventional_cache& owner = *l1s_[plan.source];
        const mem::snoop_result s = rfo ? owner.invalidate_line(block)
                                        : owner.downgrade_line(block);
        snooped(e, plan.source, rfo, s);
        // A recalled line migrates to the requester with its modified
        // data; a downgraded one flushes it into the shared level.
        if (s == mem::snoop_result::applied_dirty) {
            if (rfo)
                result.dirty = true;
            else if (downstream_ != nullptr)
                downstream_->warm_access({block, mem::access_kind::writeback,
                                          true, false, plan.source});
        }
        // A vanished owner copy (defensive: warm evictions notify
        // synchronously) falls back to the shared level, like the detailed
        // race fallback.
        fetch = s == mem::snoop_result::not_present;
    }
    for (unsigned j = 0; j < config_.cores; ++j)
        if ((plan.invalidate & (1u << j)) != 0)
            snooped(e, mem::core_id_t(j), true,
                    l1s_[j]->invalidate_line(block));
    if (fetch && downstream_ != nullptr)
        result.dirty = downstream_
                           ->warm_access({block, mem::access_kind::read, false,
                                          rfo, core})
                           .dirty;
    result.exclusive = grant(e, core, rfo);
    dir_.touch();
    return result;
}

coherence_hub::request_plan
coherence_hub::plan_request(const dir_entry& e, mem::core_id_t core,
                            bool rfo) const
{
    const std::uint32_t me = 1u << core;
    request_plan plan;
    if (e.state == dir_state::exclusive_modified && e.owner != core) {
        // A remote owner supplies the data cache-to-cache: recalled for
        // an RFO, downgraded to S for a read.
        plan.source = e.owner;
    } else if (rfo) {
        // Every other copy invalidates; an upgrade (the requester already
        // shares the line) moves no data.
        plan.invalidate = e.sharers & ~me;
        plan.fetch = (e.sharers & me) == 0;
    } else {
        // I or S: the data lives in (or below) the shared level. EM owned
        // by the requester is a stale self-request: re-grant, move nothing.
        plan.fetch = e.state != dir_state::exclusive_modified;
    }
    return plan;
}

void coherence_hub::drop_sharer(dir_entry& e, mem::core_id_t core)
{
    e.sharers &= ~(1u << core);
    if (e.owner == core) {
        // An EM entry never carries owner = no_core, even transiently
        // (check_invariants asserts the shape on every paranoid tick).
        e.owner = mem::no_core;
        if (e.state == dir_state::exclusive_modified)
            e.state = e.sharers == 0 ? dir_state::invalid : dir_state::shared;
    }
    if (e.sharers == 0 && !e.busy())
        e.state = dir_state::invalid;
}

void coherence_hub::snooped(dir_entry& e, mem::core_id_t core,
                            bool invalidate, mem::snoop_result result)
{
    if (!invalidate) {
        // Downgrade: the owner keeps a Shared copy.
        if (e.owner == core)
            e.owner = mem::no_core;
        if (e.state == dir_state::exclusive_modified)
            e.state = dir_state::shared;
    }
    // An invalidated copy leaves the mask; so does an owner that had
    // already evicted the line (its writeback left, or is about to leave,
    // for the shared level).
    if (invalidate || result == mem::snoop_result::not_present)
        drop_sharer(e, core);
}

bool coherence_hub::grant(dir_entry& e, mem::core_id_t core, bool rfo)
{
    const std::uint32_t me = 1u << core;
    e.sharers |= me;
    const bool exclusive = rfo || e.sharers == me;
    e.state = exclusive ? dir_state::exclusive_modified : dir_state::shared;
    e.owner = exclusive ? core : mem::no_core;
    return exclusive;
}

dir_entry* coherence_hub::release_copy(addr_t block, mem::core_id_t core)
{
    dir_entry* e = dir_.find(block);
    if (e == nullptr)
        return nullptr;
    // An eviction notification can trail the same core's re-fetch of the
    // block (upgrade raced a capacity eviction; the fill is in - or has
    // landed from - the MSHR). The copy the directory tracks is then the
    // new one: the sharer bit must survive, or the entry would vanish
    // under a live (possibly E/M) cached line. The mirror ordering -
    // re-request arriving while the directory still shows ownership - is
    // the stale-self-request case of plan_request().
    if (l1s_[core] == nullptr || !l1s_[core]->holds_or_in_flight(block))
        drop_sharer(*e, core);
    dir_.touch();
    if (e->busy())
        return e;
    dir_.release_if_idle(*e);
    return nullptr;
}

void coherence_hub::respond(const mem::mem_response& response)
{
    below_resp_.push(response.ready_at, response);
}

cycle_t coherence_hub::next_event(cycle_t now) const
{
    // A queued downstream hand-off retries every cycle until space frees.
    if (!down_pending_.empty())
        return now;
    cycle_t next = reqs_.next_ready();
    if (snoops_.next_ready() < next)
        next = snoops_.next_ready();
    if (below_resp_.next_ready() < next)
        next = below_resp_.next_ready();
    return next < now ? now : next;
}

std::uint64_t coherence_hub::state_digest() const
{
    sim::state_hash h;
    h.mix(counters_.digest());
    h.mix(reqs_.size());
    h.mix(reqs_.next_ready());
    h.mix(snoops_.size());
    h.mix(snoops_.next_ready());
    h.mix(below_resp_.size());
    h.mix(below_resp_.next_ready());
    h.mix(down_pending_.size());
    h.mix(wb_in_transit_.size());
    h.mix(dir_.version());
    h.mix(in_flight_);
    return h.value();
}

bool coherence_hub::quiescent() const
{
    return reqs_.empty() && snoops_.empty() && below_resp_.empty() &&
           down_pending_.empty() && in_flight_ == 0;
}

void coherence_hub::tick(cycle_t now)
{
    process_below_responses(now);
    process_snoops(now);
    process_requests(now);
    drain_downstream();
    if (paranoid_)
        check_invariants();
}

std::int32_t coherence_hub::allocate_txn()
{
    const std::int32_t slot = txn_free_.back();
    txn_free_.pop_back();
    txns_[std::size_t(slot)] = txn{};
    txns_[std::size_t(slot)].live = true;
    ++in_flight_;
    return slot;
}

coherence_hub::txn* coherence_hub::txn_by_down_id(txn_id_t id)
{
    for (txn& t : txns_)
        if (t.live && t.waiting_below && t.down_id == id)
            return &t;
    return nullptr;
}

void coherence_hub::send_snoop(cycle_t now, std::int32_t slot,
                               mem::core_id_t core, bool invalidate)
{
    counters_.inc(invalidate ? h_inv_sent_ : h_downgrades_sent_);
    snoops_.push(now + config_.snoop_latency,
                 snoop_msg{core, txns_[std::size_t(slot)].block, invalidate,
                           slot});
    ++txns_[std::size_t(slot)].pending_snoops;
}

void coherence_hub::fetch_below(cycle_t now, std::int32_t slot)
{
    txn& t = txns_[std::size_t(slot)];
    mem::mem_request fetch;
    fetch.id = ids_.next();
    fetch.addr = t.block;
    fetch.size = config_.block_bytes;
    fetch.kind = mem::access_kind::read;
    fetch.created_at = now;
    fetch.needs_response = true;
    fetch.core = t.requester;
    fetch.exclusive = t.rfo;
    t.waiting_below = true;
    t.down_id = fetch.id;
    counters_.inc(h_fetches_below_);
    down_pending_.push_back(fetch);
}

void coherence_hub::push_writeback_below(cycle_t now, addr_t block, bool dirty,
                                         mem::core_id_t core)
{
    mem::mem_request wb;
    wb.id = ids_.next();
    wb.addr = block;
    wb.size = config_.block_bytes;
    wb.kind = mem::access_kind::writeback;
    wb.created_at = now;
    wb.needs_response = false;
    wb.dirty = dirty;
    wb.core = core;
    counters_.inc(h_writebacks_below_);
    down_pending_.push_back(wb);
}

void coherence_hub::drain_downstream()
{
    while (!down_pending_.empty() && downstream_ != nullptr &&
           downstream_->can_accept(down_pending_.front())) {
        downstream_->accept(down_pending_.front());
        down_pending_.pop_front();
    }
}

void coherence_hub::process_requests(cycle_t now)
{
    while (auto request = reqs_.pop_ready(now)) {
        if (request->kind == mem::access_kind::writeback)
            process_writeback(now, *request);
        else
            process_read(now, *request);
    }
}

void coherence_hub::process_read(cycle_t now, const mem::mem_request& request)
{
    const addr_t block = block_of(request.addr);
    dir_entry* existing = dir_.find(block);
    if ((existing != nullptr && existing->busy()) || txn_free_.empty()) {
        // Transactions serialise per block; wait for the one in flight.
        counters_.inc(h_busy_retries_);
        reqs_.push(now + 1, request);
        return;
    }
    counters_.inc(request.exclusive ? h_rfos_ : h_reads_);

    dir_entry& e = dir_.get_or_create(block);
    const std::int32_t slot = allocate_txn();
    txn& t = txns_[std::size_t(slot)];
    t.block = block;
    t.requester = request.core;
    t.up_id = request.id;
    t.up_addr = request.addr;
    t.rfo = request.exclusive;
    e.txn = slot;

    if (request.exclusive && (e.sharers & (1u << request.core)) != 0)
        counters_.inc(h_upgrades_);
    if (e.state == dir_state::exclusive_modified && e.owner == request.core)
        counters_.inc(h_owner_rerequests_);
    const request_plan plan = plan_request(e, request.core, request.exclusive);
    if (plan.source != mem::no_core) {
        send_snoop(now, slot, plan.source, /*invalidate=*/request.exclusive);
        t.data_pending = true;
    }
    for (unsigned j = 0; j < config_.cores; ++j)
        if ((plan.invalidate & (1u << j)) != 0)
            send_snoop(now, slot, mem::core_id_t(j), /*invalidate=*/true);
    if (plan.fetch)
        fetch_below(now, slot);
    // Listed at once: the fill is in flight, and the invariant checker
    // counts the MSHR as backing.
    e.sharers |= 1u << request.core;
    dir_.touch();
    maybe_finish(now, slot);
}

void coherence_hub::process_writeback(cycle_t now,
                                      const mem::mem_request& request)
{
    const addr_t block = block_of(request.addr);
    counters_.inc(h_writebacks_in_);
    for (std::size_t i = 0; i < wb_in_transit_.size(); ++i) {
        if (wb_in_transit_[i].first == request.core &&
            wb_in_transit_[i].second == block) {
            wb_in_transit_[i] = wb_in_transit_.back();
            wb_in_transit_.pop_back();
            break;
        }
    }

    if (dir_entry* e = release_copy(block, request.core)) {
        // The requester of the in-flight transaction just evicted its own
        // copy (upgrade raced a capacity eviction): the data it assumed
        // local is gone, so fetch it from the shared level.
        txn& t = txns_[std::size_t(e->txn)];
        if (t.requester == request.core && t.rfo && !t.peer_data &&
            !t.data_pending && !t.waiting_below) {
            counters_.inc(h_race_fallbacks_);
            fetch_below(now, e->txn);
        }
    }

    if (forwards_victim(request.dirty))
        push_writeback_below(now, block, request.dirty, request.core);
}

void coherence_hub::process_snoops(cycle_t now)
{
    while (auto msg = snoops_.pop_ready(now)) {
        mem::conventional_cache* l1 = l1s_[msg->core];
        const mem::snoop_result result =
            msg->invalidate ? l1->snoop_invalidate(msg->block)
                            : l1->snoop_downgrade(msg->block);
        if (result == mem::snoop_result::retry) {
            counters_.inc(h_snoop_retries_);
            snoops_.push(now + 1, *msg);
            continue;
        }

        txn& t = txns_[std::size_t(msg->txn)];
        snooped(*dir_.find(t.block), msg->core, msg->invalidate, result);
        // A transaction sends at most one data-sourcing snoop (the EM
        // recall/downgrade), and sends it alone - so if one is pending,
        // this is it. A recalled line migrates with its modified data; a
        // downgraded one flushes it into the shared level.
        const bool data_source = t.data_pending;
        if (result != mem::snoop_result::not_present && data_source) {
            t.peer_data = true;
            t.peer_dirty = msg->invalidate &&
                           result == mem::snoop_result::applied_dirty;
            if (!msg->invalidate && result == mem::snoop_result::applied_dirty)
                push_writeback_below(now, t.block, true, msg->core);
        }
        dir_.touch();
        if (data_source) {
            t.data_pending = false;
            if (!t.peer_data && !t.waiting_below) {
                // Race: the copy we counted on vanished. The data is in
                // (or en route to) the shared level - fetch it there.
                counters_.inc(h_race_fallbacks_);
                fetch_below(now, msg->txn);
            }
        }
        --t.pending_snoops;
        maybe_finish(now, msg->txn);
    }
}

void coherence_hub::process_below_responses(cycle_t now)
{
    while (auto response = below_resp_.pop_ready(now)) {
        txn* t = txn_by_down_id(response->id);
        if (t == nullptr) {
            counters_.inc(h_untracked_below_);
            continue;
        }
        t->waiting_below = false;
        t->below_served_by = response->served_by;
        t->below_fabric_level = response->fabric_level;
        t->below_dirty = response->dirty;
        maybe_finish(now, std::int32_t(t - txns_.data()));
    }
}

void coherence_hub::maybe_finish(cycle_t now, std::int32_t slot)
{
    txn& t = txns_[std::size_t(slot)];
    if (!t.live || t.pending_snoops != 0 || t.waiting_below)
        return;

    dir_entry* e = dir_.find(t.block);
    const bool exclusive = grant(*e, t.requester, t.rfo);
    e->txn = -1;
    dir_.touch();

    mem::mem_response r;
    r.id = t.up_id;
    r.addr = t.up_addr;
    r.ready_at =
        now + (t.peer_data ? config_.c2c_latency : config_.response_latency);
    if (t.peer_data) {
        counters_.inc(h_c2c_);
        if (t.peer_dirty)
            counters_.inc(h_c2c_dirty_);
        r.served_by = mem::service_level::peer_l1;
    } else if (t.below_served_by != mem::service_level::none) {
        r.served_by = t.below_served_by;
        r.fabric_level = t.below_fabric_level;
    } else {
        // Pure upgrade: the data never moved - it was already local.
        r.served_by = mem::service_level::l1;
    }
    r.dirty = t.peer_dirty || t.below_dirty;
    r.exclusive = exclusive;
    r.core = t.requester;
    l1s_[t.requester]->respond(r);

    t = txn{};
    txn_free_.push_back(slot);
    --in_flight_;
}

void coherence_hub::check_invariants() const
{
    const auto fail = [](const std::string& what) {
        throw coherence_error("coherence invariant violated: " + what);
    };

    dir_.for_each([&](const dir_entry& e) {
        if (e.state == dir_state::exclusive_modified) {
            if (e.owner == mem::no_core || e.owner >= config_.cores)
                fail("EM entry without a valid owner");
            if (!e.busy() && e.sharers != (1u << e.owner))
                fail("EM entry whose sharer mask is not exactly the owner");
            if ((e.sharers & (1u << e.owner)) == 0)
                fail("EM owner missing from its own sharer mask");
        }
        if (e.state == dir_state::shared) {
            if (e.owner != mem::no_core)
                fail("Shared entry with an owner");
            if (!e.busy() && e.sharers == 0)
                fail("Shared entry with an empty mask");
        }
        if (e.state == dir_state::invalid && !e.busy())
            fail("idle invalid entry not released");

        unsigned exclusive_copies = 0;
        for (unsigned i = 0; i < config_.cores; ++i) {
            if (l1s_[i] != nullptr && l1s_[i]->tags().is_exclusive(e.block))
                ++exclusive_copies;
            if ((e.sharers & (1u << i)) == 0)
                continue;
            bool backed =
                l1s_[i] != nullptr && l1s_[i]->holds_or_in_flight(e.block);
            if (!backed)
                for (const auto& [core, block] : wb_in_transit_)
                    if (core == i && block == e.block) {
                        backed = true;
                        break;
                    }
            if (!backed)
                fail("sharer bit set for a core that holds nothing");
        }
        if (exclusive_copies > 1)
            fail("more than one L1 holds the block with E/M permission");
    });


    // Reverse containment: no L1 caches a block the directory ignores.
    for (unsigned i = 0; i < config_.cores; ++i) {
        if (l1s_[i] == nullptr)
            continue;
        const mem::tag_array& tags = l1s_[i]->tags();
        for (std::uint32_t set = 0; set < tags.sets(); ++set) {
            for (std::uint32_t way = 0; way < tags.ways(); ++way) {
                const mem::cache_line& line = tags.line(set, way);
                if (!line.valid)
                    continue;
                const dir_entry* e = dir_.find(block_of(line.tag));
                if (e == nullptr || (e->sharers & (1u << i)) == 0)
                    fail("L1 caches a block with no directory sharer bit");
            }
        }
    }
}

} // namespace lnuca::coh
