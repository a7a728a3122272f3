#include "src/mem/cache.h"

#include "src/common/log.h"

#include <algorithm>

namespace lnuca::mem {

conventional_cache::conventional_cache(const cache_config& config, txn_id_source& ids)
    : config_(config),
      ids_(ids),
      tags_({config.size_bytes, config.ways, config.block_bytes, config.policy,
             config.seed}),
      mshrs_(config.mshr_entries, config.mshr_secondary),
      wb_(config.write_buffer_entries, config.block_bytes),
      port_free_(std::size_t(config.ports) * std::max(1u, config.banks), 0)
{
    // Pre-size the hot-path queues so steady-state ticks never allocate.
    input_writes_.reserve(config.write_buffer_entries);
    lookups_.reserve(std::size_t(config.write_buffer_entries) +
                     config.mshr_entries + 8);
    refills_.reserve(config.mshr_entries + 8);
    if (config.coherent)
        pending_fill_blocks_.reserve(config.mshr_entries + 8);
}

std::size_t conventional_cache::bank_of(addr_t addr) const
{
    if (config_.banks <= 1)
        return 0;
    return std::size_t((addr / config_.block_bytes) % config_.banks);
}

bool conventional_cache::can_accept(const mem_request& request) const
{
    // Writes and writebacks wait in the input write buffer and never
    // compete with demand reads for a port on arrival.
    if (request.kind != access_kind::read)
        return input_writes_.size() < config_.write_buffer_entries;
    // High watermark: once the write buffer is nearly full, reads yield the
    // port so buffered writes cannot be starved indefinitely.
    if (input_writes_.size() + 2 >= config_.write_buffer_entries)
        return false;
    const std::size_t bank = bank_of(request.addr);
    for (std::uint32_t p = 0; p < config_.ports; ++p)
        if (port_free_[bank * config_.ports + p] <= request.created_at)
            return true;
    return false;
}

void conventional_cache::accept(const mem_request& request)
{
    counters_.inc(h_accesses_);
    if (request.kind != access_kind::read) {
        input_writes_.push_back(pending_access{request, request.needs_response,
                                               false});
        return;
    }
    const cycle_t start = request.created_at;
    // Claim the first free port of the addressed bank (checked above).
    const std::size_t bank = bank_of(request.addr);
    for (std::uint32_t p = 0; p < config_.ports; ++p) {
        cycle_t& free_at = port_free_[bank * config_.ports + p];
        if (free_at <= start) {
            free_at = start + config_.initiation_interval;
            break;
        }
    }
    const cycle_t done = start + config_.completion_latency;
    lookups_.push(done > 0 ? done - 1 : 0,
                  pending_access{request, request.needs_response, false});
}

void conventional_cache::respond(const mem_response& response)
{
    refills_.push(response.ready_at, response);
    if (config_.coherent)
        pending_fill_blocks_.push_back(tags_.block_of(response.addr));
}

bool conventional_cache::pending_fill(addr_t block) const
{
    for (const addr_t b : pending_fill_blocks_)
        if (b == block)
            return true;
    return false;
}

void conventional_cache::pending_fill_remove(addr_t block)
{
    for (std::size_t i = 0; i < pending_fill_blocks_.size(); ++i) {
        if (pending_fill_blocks_[i] == block) {
            pending_fill_blocks_[i] = pending_fill_blocks_.back();
            pending_fill_blocks_.pop_back();
            return;
        }
    }
}

cycle_t conventional_cache::next_event(cycle_t now) const
{
    // Retry loops run every cycle until they drain: buffered input writes
    // wait for an idle port, unissued misses and the write-buffer head poll
    // the downstream level. Any of them makes the cache immediately busy.
    if (!input_writes_.empty() || !wb_.empty() || mshrs_.any_unissued())
        return now;
    // Otherwise the only future work is time-stamped: finishing lookups and
    // arriving refills.
    return std::min(lookups_.next_ready(), refills_.next_ready());
}

std::uint64_t conventional_cache::state_digest() const
{
    sim::state_hash h;
    h.mix(counters_.digest());
    h.mix(lookups_.size());
    h.mix(lookups_.next_ready());
    h.mix(refills_.size());
    h.mix(refills_.next_ready());
    h.mix(input_writes_.size());
    h.mix(wb_.size());
    h.mix(mshrs_.in_use());
    h.mix(mshrs_.any_unissued());
    for (const cycle_t free_at : port_free_)
        h.mix(free_at);
    return h.value();
}

void conventional_cache::tick(cycle_t now)
{
    now_ = now;
    warm_state_stale_ = true;
    while (auto access = lookups_.pop_ready(now))
        process_lookup(now, *access);
    drain_input_writes(now);
    process_refills(now);
    issue_misses(now);
    drain_write_buffer(now);
}

void conventional_cache::drain_input_writes(cycle_t now)
{
    // Absorb buffered writes through idle ports of their target banks.
    std::size_t scanned = input_writes_.size();
    while (scanned-- > 0 && !input_writes_.empty()) {
        const pending_access access = input_writes_.front();
        const std::size_t bank = bank_of(access.request.addr);
        bool claimed = false;
        for (std::uint32_t p = 0; p < config_.ports && !claimed; ++p) {
            cycle_t& free_at = port_free_[bank * config_.ports + p];
            if (free_at <= now) {
                free_at = now + config_.initiation_interval;
                claimed = true;
            }
        }
        if (!claimed)
            return; // head-of-line waits for its bank
        input_writes_.pop_front();
        const cycle_t done = now + config_.completion_latency;
        lookups_.push(done > 0 ? done - 1 : 0, access);
    }
}

void conventional_cache::process_lookup(cycle_t now, pending_access access)
{
    switch (access.request.kind) {
    case access_kind::read:
        handle_read_like(now, access);
        break;
    case access_kind::write:
        if (config_.write_through || !config_.write_allocate)
            handle_write_through_store(now, access);
        else
            handle_read_like(now, access); // copy-back write-allocate
        break;
    case access_kind::writeback:
        handle_incoming_writeback(now, access);
        break;
    }
}

void conventional_cache::handle_read_like(cycle_t now, pending_access access)
{
    const mem_request& req = access.request;
    const bool is_write = req.kind == access_kind::write;
    if (!access.counted) {
        counters_.inc(is_write ? h_writes_ : h_reads_);
        access.counted = true;
    }

    // Snoop both write buffers: a matching entry means the data is present
    // on this side of the downstream interface.
    bool buffered = !is_write && wb_.contains(req.addr);
    if (!is_write && !buffered) {
        const addr_t block = tags_.block_of(req.addr);
        for (const auto& w : input_writes_)
            if (tags_.block_of(w.request.addr) == block) {
                buffered = true;
                break;
            }
    }
    if (buffered) {
        counters_.inc(h_wb_hit_);
        counters_.inc(h_read_hit_);
        if (access.needs_response)
            respond_up(now, {req.id, req.addr, req.kind, req.created_at},
                       config_.level_tag, 0);
        return;
    }

    if (tags_.lookup(req.addr)) {
        // MESI: a store may only dirty a line it holds with write
        // permission (E/M). A hit on a Shared line falls through to the
        // miss path as an upgrade (read-for-ownership without data need).
        const bool upgrade = is_write && config_.coherent &&
                             !tags_.is_exclusive(req.addr);
        if (!upgrade) {
            counters_.inc(is_write ? h_write_hit_ : h_read_hit_);
            if (is_write)
                tags_.set_dirty(req.addr, true);
            if (access.needs_response)
                respond_up(now, {req.id, req.addr, req.kind, req.created_at},
                           config_.level_tag, 0);
            return;
        }
        counters_.inc(h_upgrade_miss_);
    }

    counters_.inc(is_write ? h_write_miss_ : h_read_miss_);
    const addr_t block = tags_.block_of(req.addr);
    const mshr_target target{req.id, req.addr, req.kind, req.created_at};
    if (mshr_entry* entry = mshrs_.find(block)) {
        // A write may not piggyback on a plain read already sent
        // downstream: the fill would arrive without ownership. Wait for
        // the entry to release, then miss again as an RFO.
        if (config_.coherent && is_write && entry->issued &&
            !entry->for_write) {
            counters_.inc(h_mshr_secondary_stall_);
            lookups_.push(now + 1, access);
            return;
        }
        if (entry->target_count < config_.mshr_secondary) {
            counters_.inc(h_mshr_merge_);
            entry->for_write = entry->for_write || is_write;
            if (access.needs_response)
                mshrs_.add_target(*entry, target);
            return;
        }
        counters_.inc(h_mshr_secondary_stall_);
        lookups_.push(now + 1, access); // retry until a target slot frees
        return;
    }
    if (!mshrs_.can_allocate()) {
        counters_.inc(h_mshr_full_stall_);
        lookups_.push(now + 1, access);
        return;
    }
    auto& entry = mshrs_.allocate(block, now);
    entry.for_write = is_write;
    if (access.needs_response)
        mshrs_.add_target(entry, target);
}

void conventional_cache::handle_write_through_store(cycle_t now,
                                                    pending_access access)
{
    const mem_request& req = access.request;
    if (!access.counted) {
        counters_.inc(h_writes_);
        access.counted = true;
    }
    if (tags_.lookup(req.addr)) {
        counters_.inc(h_write_hit_);
        if (!config_.write_through) {
            // Copy-back no-write-allocate (the r-tile): a store hit dirties
            // the line in place and produces no downstream traffic.
            tags_.set_dirty(req.addr, true);
            if (access.needs_response)
                respond_up(now, {req.id, req.addr, req.kind, req.created_at},
                           config_.level_tag, 0);
            return;
        }
        // Write-through: line updated in place, stays clean; fall through
        // to forward the word downstream.
    } else {
        counters_.inc(h_write_miss_); // no allocation on either policy
    }

    if (!wb_.push(req.addr, /*writeback=*/false, /*dirty=*/false)) {
        counters_.inc(h_wb_full_stall_);
        lookups_.push(now + 1, access);
        return;
    }
    counters_.inc(h_write_through_out_);
    if (access.needs_response)
        respond_up(now, {req.id, req.addr, req.kind, req.created_at},
                   config_.level_tag, 0);
}

void conventional_cache::handle_incoming_writeback(cycle_t now,
                                                   const pending_access& access)
{
    const mem_request& req = access.request;
    counters_.inc(h_writeback_in_);

    // Full block arrives from above: install without fetch. Hold off when
    // a displaced victim could not be buffered.
    if (!tags_.set_has_free_way(req.addr) && !tags_.probe(req.addr) && wb_.full()) {
        counters_.inc(h_refill_wb_stall_);
        lookups_.push(now + 1, access);
        return;
    }
    if (auto victim = install_line(req.addr, req.dirty, false))
        queue_victim(*victim);
}

void conventional_cache::issue_misses(cycle_t now)
{
    for (mshr_entry* entry = mshrs_.first_unissued(); entry != nullptr;) {
        if (downstream_ == nullptr) {
            LNUCA_ERROR(config_.name, ": miss with no downstream level");
            mshr_entry* next = mshrs_.next_unissued(*entry);
            mshrs_.mark_issued(*entry);
            entry = next;
            continue;
        }
        mem_request miss;
        miss.id = ids_.next();
        miss.addr = entry->block_addr;
        miss.size = config_.block_bytes;
        miss.kind = access_kind::read;
        miss.created_at = now;
        miss.needs_response = true;
        miss.core = config_.core_id;
        miss.exclusive = config_.coherent && entry->for_write;
        if (!downstream_->can_accept(miss))
            break; // retry next cycle, preserve order
        downstream_->accept(miss);
        mshrs_.mark_issued(*entry);
        counters_.inc(h_miss_issued_);
        break; // one new miss per cycle
    }
}

void conventional_cache::drain_write_buffer(cycle_t now)
{
    const auto head = wb_.head();
    if (!head || downstream_ == nullptr)
        return;
    mem_request write;
    write.id = ids_.next();
    write.addr = *head;
    write.size = config_.block_bytes;
    write.kind = wb_.head_is_writeback() ? access_kind::writeback : access_kind::write;
    write.created_at = now;
    write.needs_response = false;
    write.dirty = wb_.head_is_dirty();
    write.core = config_.core_id;
    if (!downstream_->can_accept(write))
        return;
    downstream_->accept(write);
    wb_.pop();
    counters_.inc(h_wb_drained_);
}

void conventional_cache::process_refills(cycle_t now)
{
    for (std::uint32_t i = 0; i < config_.fills_per_cycle; ++i) {
        auto response = refills_.pop_ready(now);
        if (!response)
            return;

        const addr_t block = tags_.block_of(response->addr);
        if (config_.coherent)
            pending_fill_remove(block);

        // A displaced dirty victim needs write-buffer space; wait if full.
        if (!tags_.set_has_free_way(block) && !tags_.probe(block) && wb_.full()) {
            counters_.inc(h_refill_wb_stall_);
            refills_.push(now + 1, *response);
            if (config_.coherent)
                pending_fill_blocks_.push_back(block);
            return;
        }

        const auto entry = mshrs_.release(block);
        if (!entry) {
            // Response for a transaction we do not track (e.g. an ack for
            // drained write traffic); nothing to fill.
            counters_.inc(h_untracked_response_);
            continue;
        }

        bool fill_dirty = response->dirty;
        if (!config_.write_through)
            for (std::uint32_t t = 0; t < entry.target_count; ++t)
                fill_dirty |= entry.targets[t].kind == access_kind::write;

        if (auto victim = install_line(block, fill_dirty, response->exclusive))
            queue_victim(*victim);
        counters_.inc(h_fills_);

        for (std::uint32_t t = 0; t < entry.target_count; ++t)
            respond_up(now, entry.targets[t], response->served_by,
                       response->fabric_level);
    }
}

void conventional_cache::respond_up(cycle_t now, const mshr_target& target,
                                    service_level origin, std::uint8_t fabric_level)
{
    if (upstream_ == nullptr)
        return;
    mem_response response;
    response.id = target.id;
    response.addr = target.addr;
    response.ready_at = now;
    response.served_by = origin;
    response.fabric_level = fabric_level;
    upstream_->respond(response);
}

void conventional_cache::queue_victim(const evicted_line& victim)
{
    counters_.inc(h_evictions_);
    if (!writes_back(victim))
        return;
    counters_.inc(h_writeback_out_);
    // Capacity was checked before install; push cannot fail here.
    wb_.push(victim.block_addr, /*writeback=*/true, victim.dirty);
}

std::optional<evicted_line> conventional_cache::install_line(addr_t addr,
                                                             bool dirty,
                                                             bool exclusive)
{
    auto victim = tags_.install(addr, dirty);
    // MESI: E on a sole-copy grant, M whenever the line carries modified
    // data (a dirty line is always exclusive).
    if (config_.coherent)
        tags_.set_exclusive(addr, exclusive || dirty);
    return victim;
}

warm_result conventional_cache::warm_access(const warm_request& request)
{
    // The content transitions of process_lookup() and process_refills()
    // applied at once (see the warm_access() contract in src/mem/request.h):
    // the same hit, upgrade, fill and victim decisions, with the fetch and
    // the victim writeback passed down synchronously. No timing state, no
    // counters.
    if (warm_state_stale_) {
        // Detailed execution ran since the last warm access: the elision
        // block may have been evicted and the real write buffer drained.
        warm_last_block_ = no_addr;
        warm_wb_.clear();
        warm_wb_pos_ = 0;
        warm_state_stale_ = false;
    }
    const addr_t block = tags_.block_of(request.addr);
    if (request.kind != access_kind::writeback) {
        if (block == warm_last_block_ && request.kind == warm_last_kind_)
            return {}; // consecutive repeat: hit on the MRU block, no-op
        warm_last_block_ = block;
        warm_last_kind_ = request.kind;
    }
    switch (request.kind) {
    case access_kind::read:
        // Snoop order matches handle_read_like(): a write-buffer hit is
        // served without touching tag recency at all.
        if (warm_wb_contains(block) || tags_.lookup(block))
            return {};
        return {warm_fill(request.addr, false), false};
    case access_kind::write:
        if (config_.write_through || !config_.write_allocate) {
            if (tags_.lookup(block) && !config_.write_through) {
                // Copy-back no-write-allocate (the r-tile): a store hit
                // dirties in place and produces no downstream traffic.
                tags_.set_dirty(block, true);
                return {};
            }
            // Write-through traffic and r-tile store misses forward below,
            // coalescing per block like the outgoing write buffer.
            if (downstream_ != nullptr && !warm_wb_contains(block)) {
                warm_wb_remember(block);
                downstream_->warm_access({request.addr, access_kind::write,
                                          false, false, config_.core_id});
            }
            return {};
        }
        if (!tags_.lookup(block)) {
            warm_fill(request.addr, true); // write-allocate: fetch, dirty
            return {};
        }
        if (config_.coherent && !tags_.is_exclusive(block)) {
            // Store hit on a Shared line: the upgrade of handle_read_like().
            // The hub invalidates every other copy; no data moves.
            if (downstream_ != nullptr)
                downstream_->warm_access({request.addr, access_kind::read,
                                          false, true, config_.core_id});
            tags_.set_exclusive(block, true);
        }
        tags_.set_dirty(block, true);
        return {};
    case access_kind::writeback:
        warm_write_back(install_line(request.addr, request.dirty, false));
        return {};
    }
    return {};
}

bool conventional_cache::warm_fill(addr_t addr, bool write)
{
    // The miss of issue_misses() (a coherent store miss asks for ownership)
    // and the install of process_refills().
    warm_result below;
    if (downstream_ != nullptr)
        below = downstream_->warm_access({addr, access_kind::read, false,
                                          config_.coherent && write,
                                          config_.core_id});
    warm_write_back(install_line(addr, below.dirty || write, below.exclusive));
    return below.dirty;
}

void conventional_cache::warm_write_back(
    const std::optional<evicted_line>& victim)
{
    if (victim && writes_back(*victim) && downstream_ != nullptr)
        downstream_->warm_access({victim->block_addr, access_kind::writeback,
                                  victim->dirty, false, config_.core_id});
}

bool conventional_cache::warm_wb_contains(addr_t block) const
{
    for (const addr_t b : warm_wb_)
        if (b == block)
            return true;
    return false;
}

void conventional_cache::warm_wb_remember(addr_t block)
{
    if (warm_wb_.size() < config_.write_buffer_entries) {
        warm_wb_.push_back(block);
        return;
    }
    warm_wb_[warm_wb_pos_] = block;
    warm_wb_pos_ = (warm_wb_pos_ + 1) % warm_wb_.size();
}

bool conventional_cache::quiescent() const
{
    return lookups_.empty() && refills_.empty() && mshrs_.empty() &&
           wb_.empty() && input_writes_.empty();
}

snoop_result conventional_cache::snoop_invalidate(addr_t addr)
{
    const addr_t block = tags_.block_of(addr);
    if (snoop_must_wait(block))
        return snoop_result::retry;
    // Present: drop the copy. A store already queued for this block simply
    // misses afterwards and re-requests ownership.
    const snoop_result result = invalidate_line(block);
    if (result != snoop_result::not_present)
        counters_.inc(h_snoop_inv_);
    if (result == snoop_result::applied_dirty)
        counters_.inc(h_snoop_inv_dirty_);
    return result;
}

snoop_result conventional_cache::snoop_downgrade(addr_t addr)
{
    const addr_t block = tags_.block_of(addr);
    if (snoop_must_wait(block))
        return snoop_result::retry;
    const snoop_result result = downgrade_line(block);
    if (result != snoop_result::not_present)
        counters_.inc(h_snoop_downgrade_);
    return result;
}

bool conventional_cache::snoop_must_wait(addr_t block)
{
    // A granted fill is on its way in: the directory already promised this
    // cache the line (possibly exclusively), so the snoop must land on the
    // installed copy, not on a stale tags entry the fill would silently
    // resurrect with E/M permission. Absent lines wait for a fill still in
    // the MSHRs or an eviction writeback on its way out.
    const bool wait = pending_fill(block) ||
                      (!tags_.probe(block) &&
                       (mshrs_.find(block) != nullptr || wb_.contains(block)));
    if (wait)
        counters_.inc(h_snoop_retry_);
    return wait;
}

snoop_result conventional_cache::invalidate_line(addr_t addr)
{
    const addr_t block = tags_.block_of(addr);
    forget_warm_block(block);
    if (const auto line = tags_.extract(block))
        return line->dirty ? snoop_result::applied_dirty
                           : snoop_result::applied_clean;
    return snoop_result::not_present;
}

snoop_result conventional_cache::downgrade_line(addr_t addr)
{
    const addr_t block = tags_.block_of(addr);
    // The line stays resident, but a later warm store to it must not be
    // elided, or it would skip re-acquiring write permission.
    forget_warm_block(block);
    if (const auto hit = tags_.probe(block)) {
        tags_.set_dirty(block, false);
        tags_.set_exclusive(block, false);
        return hit->was_dirty ? snoop_result::applied_dirty
                              : snoop_result::applied_clean;
    }
    return snoop_result::not_present;
}

bool conventional_cache::holds_or_in_flight(addr_t addr) const
{
    const addr_t block = tags_.block_of(addr);
    return tags_.probe(block).has_value() || mshrs_.find(block) != nullptr ||
           wb_.contains(block);
}

} // namespace lnuca::mem
