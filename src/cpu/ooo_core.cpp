#include "src/cpu/ooo_core.h"

#include "src/common/log.h"

#include <algorithm>
#include <stdexcept>

namespace lnuca::cpu {

ooo_core::ooo_core(const core_config& config, instruction_stream& stream,
                   mem::txn_id_source& ids)
    : config_(config),
      stream_(stream),
      ids_(ids),
      predictor_(4096, 16, 4096),
      dtlb_(config.tlb_entries, config.page_bytes),
      rob_(config.rob_size),
      ready_slots_(config.rob_size)
{
    // Pre-size every hot-path container for its structural bound so
    // steady-state ticks never allocate.
    fetch_queue_.reserve(4 * config.fetch_width + config.fetch_width);
    store_buffer_.reserve(config.store_buffer_size);
    pending_loads_.reserve(config.lsq_size);
    retry_scratch_.reserve(config.lsq_size);
    rob_store_slots_.reserve(config.lsq_size);
    completions_.reserve(config.rob_size);
    delayed_mem_.reserve(config.lsq_size);
    responses_.reserve(config.lsq_size + config.store_buffer_size);
    for (auto& entry : rob_)
        entry.dependents.reserve(8);
}

void ooo_core::respond(const mem::mem_response& response)
{
    responses_.push(response.ready_at, response);
}

void ooo_core::tick(cycle_t now)
{
    process_responses(now);
    commit(now);
    writeback(now);
    issue(now);
    dispatch(now);
    fetch(now);
    drain_store_buffer(now);
    // Engine-time accounting: idle cycles count whether or not the engine
    // actually ticked us through them (idle-skip jumps over no-op cycles).
    last_tick_ = now;
    cycles_ = now + 1 - cycles_base_;
}

bool ooo_core::dispatch_capacity(const instruction& inst) const
{
    if (rob_count_ >= rob_.size())
        return false;
    if (is_mem(inst.op))
        return mem_used_ < config_.mem_window && lsq_used_ < config_.lsq_size;
    if (is_fp(inst.op))
        return fp_used_ < config_.fp_window;
    return int_used_ < config_.int_window;
}

cycle_t ooo_core::next_event(cycle_t now) const
{
    // Immediately actionable work means the very next cycle matters.
    if (rob_count_ > 0 && rob_[rob_head_].state == entry_state::done)
        return now; // commit retires the head
    if (sb_unissued_ > 0 || sb_acked_ > 0)
        return now; // store issues to the L1 / retires from the buffer
    if (ready_slots_.any())
        return now; // scheduler has an instruction to issue
    cycle_t next = std::min({responses_.next_ready(), completions_.next_ready(),
                             delayed_mem_.next_ready()});
    // Dispatch is bounded by the front-end ready time while capacity
    // exists. When capacity-blocked, every unblocking path (commit, issue,
    // writeback, load response) is itself one of the events above, so the
    // block cannot clear inside a skipped gap.
    if (!fetch_queue_.empty() && dispatch_capacity(fetch_queue_.front().inst))
        next = std::min(next, std::max(now, fetch_queue_.front().ready_at));
    // Fetch: the redirect-penalty window is the only pure time gate; the
    // other blockers (mispredict in flight, full front-end buffer, enough
    // instructions in flight) clear exclusively through core events.
    if (committed_ + rob_count_ + fetch_queue_.size() < limit_ &&
        !fetch_blocked_ && fetch_queue_.size() < 4 * config_.fetch_width)
        next = std::min(next, std::max(now, fetch_stalled_until_));
    return next;
}

std::uint64_t ooo_core::state_digest() const
{
    for (std::uint32_t slot = 0; slot < rob_.size(); ++slot)
        if (ready_slots_.test(slot) != (rob_[slot].state == entry_state::ready))
            throw std::logic_error(
                "ready-slot mask disagrees with the ROB entry states");
    sim::state_hash h;
    h.mix(counters_.digest());
    h.mix(committed_);
    h.mix(rob_count_);
    h.mix(rob_head_);
    h.mix(next_seq_);
    h.mix(int_used_);
    h.mix(fp_used_);
    h.mix(mem_used_);
    h.mix(lsq_used_);
    h.mix(fetch_queue_.size());
    h.mix(fetch_blocked_);
    h.mix(fetch_stalled_until_);
    h.mix(store_buffer_.size());
    for (const auto& sb : store_buffer_)
        h.mix((sb.issued ? 2u : 0u) | (sb.acked ? 1u : 0u));
    h.mix(completions_.size());
    h.mix(completions_.next_ready());
    h.mix(delayed_mem_.size());
    h.mix(delayed_mem_.next_ready());
    h.mix(responses_.size());
    h.mix(responses_.next_ready());
    for (const auto& [txn, slot] : pending_loads_)
        h.mix_unordered(txn * 0x9e3779b97f4a7c15ULL + slot);
    return h.value();
}

bool ooo_core::in_rob(std::uint64_t seq) const
{
    if (rob_count_ == 0 || seq == 0)
        return false;
    const std::uint64_t head_seq = rob_[rob_head_].seq;
    return seq >= head_seq && seq < head_seq + rob_count_;
}

std::uint32_t ooo_core::slot_of_seq(std::uint64_t seq) const
{
    const std::uint64_t head_seq = rob_[rob_head_].seq;
    return std::uint32_t((rob_head_ + (seq - head_seq)) % rob_.size());
}

unsigned ooo_core::latency_of(op_class op) const
{
    switch (op) {
    case op_class::int_alu: return config_.lat_int_alu;
    case op_class::int_mul: return config_.lat_int_mul;
    case op_class::fp_add: return config_.lat_fp_add;
    case op_class::fp_mul: return config_.lat_fp_mul;
    case op_class::fp_div: return config_.lat_fp_div;
    case op_class::branch: return config_.lat_int_alu;
    case op_class::store: return config_.lat_int_alu; // address generation
    case op_class::load: return config_.lat_int_alu;  // unused: memory-timed
    }
    return 1;
}

void ooo_core::release_window(const rob_entry& entry)
{
    if (!entry.in_window)
        return;
    if (is_mem(entry.inst.op))
        --mem_used_;
    else if (is_fp(entry.inst.op))
        --fp_used_;
    else
        --int_used_;
}

void ooo_core::process_responses(cycle_t now)
{
    while (auto response = responses_.pop_ready(now)) {
        std::size_t pending = pending_loads_.size();
        for (std::size_t i = 0; i < pending_loads_.size(); ++i)
            if (pending_loads_[i].first == response->id) {
                pending = i;
                break;
            }
        if (pending != pending_loads_.size()) {
            const std::uint32_t slot = pending_loads_[pending].second;
            pending_loads_[pending] = pending_loads_.back();
            pending_loads_.pop_back();
            rob_entry& entry = rob_[slot];
            entry.state = entry_state::done;
            release_window(entry);
            entry.in_window = false;
            load_latency_.add(now - entry.issued_at);
            const std::size_t level = std::size_t(response->served_by) - 1;
            if (level < h_loads_served_.size())
                counters_.inc(h_loads_served_[level]);
            counters_.inc(h_loads_completed_);
            wake_dependents(slot, now);
            continue;
        }
        // Store acknowledgements retire store-buffer entries.
        bool matched = false;
        for (auto& sb : store_buffer_) {
            if (sb.issued && !sb.acked && sb.txn == response->id) {
                sb.acked = true;
                ++sb_acked_;
                matched = true;
                break;
            }
        }
        if (!matched)
            counters_.inc(h_orphan_responses_);
    }
}

void ooo_core::commit(cycle_t now)
{
    for (unsigned n = 0; n < config_.commit_width && rob_count_ > 0; ++n) {
        rob_entry& head = rob_[rob_head_];
        if (head.state != entry_state::done)
            break;
        if (head.inst.op == op_class::store) {
            if (store_buffer_.size() >= config_.store_buffer_size) {
                counters_.inc(h_sb_full_stall_);
                break;
            }
            store_buffer_.push_back({head.inst.addr, head.inst.size, 0, false,
                                     false});
            ++sb_unissued_;
            --lsq_used_;
            for (std::size_t i = 0; i < rob_store_slots_.size(); ++i) {
                if (rob_store_slots_[i] == rob_head_) {
                    rob_store_slots_[i] = rob_store_slots_.back();
                    rob_store_slots_.pop_back();
                    break;
                }
            }
        } else if (head.inst.op == op_class::load) {
            --lsq_used_;
        } else if (head.inst.op == op_class::branch) {
            counters_.inc(h_branches_);
            if (head.mispredicted)
                counters_.inc(h_branch_mispredicts_);
        }
        head.dependents.clear();
        rob_head_ = std::uint32_t((rob_head_ + 1) % rob_.size());
        --rob_count_;
        ++committed_;
        if (committed_ >= limit_ && finished_at_ == no_cycle)
            finished_at_ = now;
    }
}

void ooo_core::wake_dependents(std::uint32_t slot, cycle_t now)
{
    (void)now;
    rob_entry& producer = rob_[slot];
    for (const std::uint32_t d : producer.dependents) {
        rob_entry& dep = rob_[d];
        // Slots recycle; confirm this is still a live dependent.
        if (dep.state != entry_state::waiting || dep.deps == 0)
            continue;
        if (--dep.deps == 0) {
            dep.state = entry_state::ready;
            ready_slots_.set(d);
        }
    }
    producer.dependents.clear();
}

void ooo_core::writeback(cycle_t now)
{
    while (auto slot = completions_.pop_ready(now)) {
        rob_entry& entry = rob_[*slot];
        if (entry.state != entry_state::issued)
            continue; // recycled slot: stale completion
        entry.state = entry_state::done;
        if (entry.in_window) { // store-forwarded loads release here
            release_window(entry);
            entry.in_window = false;
        }
        wake_dependents(*slot, now);
        if (entry.inst.op == op_class::branch && entry.mispredicted &&
            fetch_blocked_ && entry.seq == fetch_block_seq_) {
            fetch_blocked_ = false;
            fetch_block_seq_ = 0;
            fetch_stalled_until_ = now + config_.mispredict_penalty;
        }
    }

    // TLB walks finished / cache-port retries.
    retry_scratch_.clear();
    while (auto slot = delayed_mem_.pop_ready(now))
        retry_scratch_.push_back(*slot);
    for (const std::uint32_t slot : retry_scratch_)
        start_load_access(slot, now);
}

void ooo_core::start_load_access(std::uint32_t slot, cycle_t now)
{
    rob_entry& entry = rob_[slot];
    if (entry.state != entry_state::issued)
        return; // stale retry for a recycled slot

    if (store_forwards(entry.inst)) {
        completions_.push(now + config_.lat_store_forward, slot);
        // Model the forward as an L1-class service for statistics.
        counters_.inc(h_loads_served_.front()); // loads_l1
        counters_.inc(h_store_forwards_);
        counters_.inc(h_loads_completed_);
        // Completion via the execution path; mark as normal op finishing.
        // (wake and state transition happen in writeback.)
        return;
    }

    mem::mem_request request;
    request.id = ids_.next();
    request.addr = entry.inst.addr;
    request.size = entry.inst.size;
    request.kind = mem::access_kind::read;
    request.created_at = now;
    if (dcache_ == nullptr || !dcache_->can_accept(request)) {
        counters_.inc(h_l1_port_retry_);
        delayed_mem_.push(now + 1, slot);
        return;
    }
    dcache_->accept(request);
    entry.txn = request.id;
    entry.issued_at = now;
    pending_loads_.emplace_back(request.id, slot);
    counters_.inc(h_loads_issued_);
}

bool ooo_core::store_forwards(const instruction& load) const
{
    const addr_t lo = load.addr;
    const addr_t hi = load.addr + load.size;
    auto overlaps = [&](addr_t a, std::uint8_t s) {
        return a < hi && lo < a + s;
    };
    // Committed but not yet globally performed stores.
    for (const auto& sb : store_buffer_)
        if (overlaps(sb.addr, sb.size))
            return true;
    // Older in-flight stores with computed addresses. Only store-holding
    // ROB slots are tracked (rob_store_slots_), so a load does not walk the
    // whole ROB; overlap is a pure any-of, so slot order is irrelevant.
    for (const std::uint32_t slot : rob_store_slots_) {
        const rob_entry& e = rob_[slot];
        if ((e.state == entry_state::issued || e.state == entry_state::done) &&
            overlaps(e.inst.addr, e.inst.size))
            return true;
    }
    return false;
}

void ooo_core::issue(cycle_t now)
{
    if (rob_count_ == 0)
        return; // also keeps a zero-entry ROB's empty mask out of the walk
    unsigned int_mem_issued = 0;
    unsigned fp_issued = 0;
    // Visit ready entries oldest-first: every ready slot lies in the live
    // ROB, so circular slot order from the head is age order. The walk
    // stops once both issue widths are spent.
    ready_slots_.for_each_from(rob_head_, [&](std::size_t i) {
        if (int_mem_issued >= config_.int_mem_issue_width &&
            fp_issued >= config_.fp_issue_width)
            return false;
        const std::uint32_t slot = std::uint32_t(i);
        rob_entry& entry = rob_[slot];

        const bool fp = is_fp(entry.inst.op);
        if (fp) {
            if (fp_issued >= config_.fp_issue_width)
                return true;
        } else if (int_mem_issued >= config_.int_mem_issue_width) {
            return true;
        }

        entry.state = entry_state::issued;
        ready_slots_.clear(slot);
        entry.issued_at = now;

        switch (entry.inst.op) {
        case op_class::load: {
            counters_.inc(h_loads_);
            if (!dtlb_.access(entry.inst.addr)) {
                counters_.inc(h_dtlb_misses_);
                delayed_mem_.push(now + config_.tlb_miss_latency, slot);
            } else {
                start_load_access(slot, now);
            }
            // The scheduler slot frees at issue; memory-level parallelism
            // is bounded by the LSQ and the MSHRs, as in the modelled core.
            release_window(entry);
            entry.in_window = false;
            break;
        }
        case op_class::store: {
            counters_.inc(h_stores_);
            cycle_t extra = 0;
            if (!dtlb_.access(entry.inst.addr)) {
                counters_.inc(h_dtlb_misses_);
                extra = config_.tlb_miss_latency;
            }
            completions_.push(now + latency_of(entry.inst.op) + extra, slot);
            release_window(entry);
            entry.in_window = false;
            break;
        }
        default:
            completions_.push(now + latency_of(entry.inst.op), slot);
            release_window(entry);
            entry.in_window = false;
            break;
        }

        if (fp)
            ++fp_issued;
        else
            ++int_mem_issued;
        return true;
    });
}

void ooo_core::dispatch(cycle_t now)
{
    for (unsigned n = 0; n < config_.dispatch_width; ++n) {
        if (fetch_queue_.empty() || fetch_queue_.front().ready_at > now)
            return;
        // Capacity back-pressure (ROB / per-class window / LSQ) is charged
        // when the instruction finally dispatches, as wait cycles beyond
        // its front-end ready time ("dispatch_wait_cycles"). Counting
        // blocked cycles one-by-one here would make the counter depend on
        // how many idle cycles the engine skipped.
        if (!dispatch_capacity(fetch_queue_.front().inst))
            return;

        const fetched item = fetch_queue_.front();
        fetch_queue_.pop_front();
        if (now > item.ready_at)
            counters_.inc(h_dispatch_wait_, now - item.ready_at);

        const std::uint32_t slot =
            std::uint32_t((rob_head_ + rob_count_) % rob_.size());
        rob_entry& entry = rob_[slot];
        // Reset in place: re-assigning a fresh rob_entry would discard the
        // dependents vector's capacity and re-allocate it on the next wake
        // registration.
        entry.dependents.clear();
        entry.inst = item.inst;
        entry.state = entry_state::waiting;
        entry.deps = 0;
        entry.issued_at = no_cycle;
        entry.txn = 0;
        entry.seq = next_seq_++;
        entry.mispredicted = item.mispredicted;
        entry.in_window = true;
        ++rob_count_;

        if (is_mem(item.inst.op)) {
            ++mem_used_;
            ++lsq_used_;
            if (item.inst.op == op_class::store)
                rob_store_slots_.push_back(slot);
        } else if (is_fp(item.inst.op)) {
            ++fp_used_;
        } else {
            ++int_used_;
        }

        // Resolve producers still in flight.
        for (const std::uint32_t dist : item.inst.dep) {
            if (dist == 0 || dist > entry.seq)
                continue;
            const std::uint64_t producer_seq = entry.seq - dist;
            if (!in_rob(producer_seq))
                continue;
            rob_entry& producer = rob_[slot_of_seq(producer_seq)];
            if (producer.seq != producer_seq ||
                producer.state == entry_state::done)
                continue;
            producer.dependents.push_back(slot);
            ++entry.deps;
        }
        entry.state = entry.deps == 0 ? entry_state::ready : entry_state::waiting;
        if (entry.state == entry_state::ready)
            ready_slots_.set(slot);

        if (item.mispredicted)
            fetch_block_seq_ = entry.seq;
    }
}

void ooo_core::fetch(cycle_t now)
{
    if (committed_ + rob_count_ + fetch_queue_.size() >= limit_)
        return; // enough instructions in flight to satisfy the run
    if (fetch_blocked_ || now < fetch_stalled_until_)
        return;
    if (fetch_queue_.size() >= 4 * config_.fetch_width)
        return; // front-end buffer full

    unsigned taken_seen = 0;
    for (unsigned n = 0; n < config_.fetch_width; ++n) {
        instruction inst = stream_.next();
        bool mispredicted = false;
        if (inst.op == op_class::branch) {
            // Predict and train at fetch with the same history state - the
            // standard trace-driven arrangement; recovery cost is charged
            // via the mispredict flag when the branch resolves.
            const bool predicted = predictor_.predict(inst.pc);
            mispredicted = predicted != inst.taken;
            predictor_.update(inst.pc, inst.taken);
            if (inst.taken)
                ++taken_seen;
        }
        fetch_queue_.push_back({now + config_.fetch_to_dispatch, inst,
                                mispredicted});
        counters_.inc(h_fetched_);
        if (mispredicted) {
            // Stop fetching until this branch resolves.
            fetch_blocked_ = true;
            fetch_block_seq_ = 0; // assigned at dispatch
            return;
        }
        if (taken_seen >= config_.max_taken_per_fetch)
            return;
    }
}

void ooo_core::drain_store_buffer(cycle_t now)
{
    // Retire acknowledged stores from the front, in order.
    while (!store_buffer_.empty() && store_buffer_.front().acked) {
        store_buffer_.pop_front();
        --sb_acked_;
    }

    // Issue the oldest unissued store.
    for (auto& sb : store_buffer_) {
        if (sb.issued)
            continue;
        mem::mem_request request;
        request.id = ids_.next();
        request.addr = sb.addr;
        request.size = sb.size;
        request.kind = mem::access_kind::write;
        request.created_at = now;
        if (dcache_ == nullptr || !dcache_->can_accept(request))
            return;
        dcache_->accept(request);
        sb.txn = request.id;
        sb.issued = true;
        --sb_unissued_;
        counters_.inc(h_stores_issued_);
        return; // one per cycle
    }
}

void ooo_core::warm_retire(std::uint64_t count)
{
    for (std::uint64_t n = 0; n < count; ++n) {
        const instruction inst = stream_.warm_next();
        switch (inst.op) {
        case op_class::branch:
            // update() trains all predictor components and the global
            // history with the same state the fetch path would use.
            predictor_.update(inst.pc, inst.taken);
            break;
        case op_class::load:
            dtlb_.access(inst.addr);
            if (dcache_ != nullptr)
                dcache_->warm_access(
                    {inst.addr, mem::access_kind::read, false});
            break;
        case op_class::store:
            dtlb_.access(inst.addr);
            if (dcache_ != nullptr)
                dcache_->warm_access(
                    {inst.addr, mem::access_kind::write, false});
            break;
        default:
            break;
        }
    }
}

std::uint64_t ooo_core::loads_served_by(mem::service_level level) const
{
    const std::size_t i = std::size_t(level) - 1;
    return i < h_loads_served_.size() ? counters_.value(h_loads_served_[i]) : 0;
}

void ooo_core::reset_stats()
{
    committed_ = 0;
    finished_at_ = no_cycle;
    cycles_ = 0;
    cycles_base_ = last_tick_ == no_cycle ? 0 : last_tick_ + 1;
    counters_.reset();
    load_latency_.reset();
}

} // namespace lnuca::cpu
