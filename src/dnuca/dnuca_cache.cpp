#include "src/dnuca/dnuca_cache.h"

#include "src/common/log.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lnuca::dnuca {

dnuca_cache::dnuca_cache(const dnuca_config& config, mem::txn_id_source& ids)
    : config_(config),
      ids_(ids),
      mshrs_(config.mshr_entries, config.mshr_secondary),
      memory_txn_(config.mshr_entries, 0),
      request_index_(0),
      active_writes_(0)
{
    for (unsigned row = 1; row <= config.rows; ++row)
        h_read_hits_row_.push_back(
            counters_.handle_of("read_hits_row_" + std::to_string(row)));
    mesh_ = std::make_unique<noc::mesh_network>(config.router,
                                                int(config.bank_sets),
                                                int(config.rows) + 1);
    banks_.resize(std::size_t(config.bank_sets) * config.rows);
    active_banks_ = index_mask(banks_.size());
    for (unsigned row = 1; row <= config.rows; ++row) {
        for (unsigned col = 0; col < config.bank_sets; ++col) {
            bank& b = bank_at(col, row);
            mem::tag_array_config tc;
            tc.size_bytes = config.bank_bytes;
            tc.ways = config.bank_ways;
            tc.block_bytes = config.block_bytes;
            tc.policy = config.policy;
            tc.seed = config.seed + row * 97 + col;
            b.tags = std::make_unique<mem::tag_array>(tc);
            b.probes.reserve(16);
            b.write_probes.reserve(16);
            b.outbox.queue.reserve(64);
            b.lookups.reserve(8);
        }
    }
    block_shift_ = log2_exact(config.block_bytes);
    if (!banks_.empty())
        bank_set_shift_ = log2_exact(banks_.front().tags->sets());
    // Pre-size the controller-side queues: a probe set is `rows` flits and
    // a data reply is flits_for_block(), so these bounds cover steady state
    // without reallocation (growth stays possible for pathological bursts).
    controller_outbox_.queue.reserve(256);
    controller_write_outbox_.queue.reserve(512);
    memory_queue_.reserve(128);
    memory_responses_.reserve(config.mshr_entries + 8);
    written_lines_.reserve(64);
    grow_requests();
}

bool dnuca_cache::can_accept(const mem::mem_request& request) const
{
    if (request.kind == mem::access_kind::read
            ? controller_outbox_.queue.size() > 64
            : controller_write_outbox_.queue.size() > 256)
        return false;
    if (request.kind == mem::access_kind::read && request.needs_response) {
        const addr_t block = request.addr & ~addr_t(config_.block_bytes - 1);
        if (const auto* entry = mshrs_.find(block))
            return entry->target_count < config_.mshr_secondary;
        return mshrs_.can_allocate();
    }
    return true;
}

void dnuca_cache::accept(const mem::mem_request& request)
{
    const cycle_t now = request.created_at;
    const addr_t block = request.addr & ~addr_t(config_.block_bytes - 1);
    const unsigned column = column_of(block);

    const bool demand_read =
        request.kind == mem::access_kind::read && request.needs_response;

    if (demand_read) {
        if (mem::mshr_entry* entry = mshrs_.find(block)) {
            mshrs_.add_target(*entry, {request.id, request.addr, request.kind,
                                       request.created_at});
            counters_.inc(h_mshr_merge_);
            return;
        }
        auto& entry = mshrs_.allocate(block, now);
        mshrs_.add_target(entry,
                          {request.id, request.addr, request.kind,
                           request.created_at});
        memory_txn_[mshrs_.slot_of(entry)] = 0;
    } else {
        // Coalesce write traffic per 128B line: the probe set in flight
        // already carries this line's update.
        const std::uint32_t writing = active_writes_.find(block);
        if (writing != slot_index::npos) {
            requests_[writing].dirty = true;
            counters_.inc(h_writes_coalesced_);
            return;
        }
        // Lines recently confirmed dirty absorb stores with no probe.
        for (const addr_t line : written_lines_) {
            if (line == block) {
                counters_.inc(h_writes_filtered_);
                return;
            }
        }
    }

    request_state state;
    state.group = next_group_++;
    state.block = block;
    state.is_demand_read = demand_read;
    state.is_write = request.kind == mem::access_kind::write;
    state.is_writeback = request.kind == mem::access_kind::writeback;
    state.dirty = request.dirty || state.is_write || state.is_writeback;
    open_request(state);

    // Multicast search: one probe per bank of the column, all from the
    // single injection point.
    const noc::packet_kind probe_kind = demand_read
                                            ? noc::packet_kind::request
                                            : noc::packet_kind::writeback;
    injector& outbox = demand_read ? controller_outbox_
                                   : controller_write_outbox_;
    for (unsigned row = 1; row <= config_.rows; ++row)
        send_packet(outbox, probe_kind, {0, 0}, bank_coord(column, row),
                    block, state.group, 1, now);
    counters_.inc(demand_read ? h_read_probes_ : h_write_probes_);
}

void dnuca_cache::open_request(const request_state& state)
{
    if (free_requests_.empty())
        grow_requests();
    const std::uint32_t slot = free_requests_.back();
    free_requests_.pop_back();
    requests_[slot] = state;
    request_index_.insert(state.group, slot);
    if (!state.is_demand_read)
        active_writes_.insert(state.block, slot);
}

void dnuca_cache::close_request(std::uint32_t slot)
{
    const request_state& state = requests_[slot];
    request_index_.erase(state.group);
    if (!state.is_demand_read)
        active_writes_.erase(state.block);
    requests_[slot] = request_state{};
    free_requests_.push_back(slot);
}

void dnuca_cache::grow_requests()
{
    // Every slot holds a live probe set (or none exist yet): double the
    // slab and re-index the live sets. A fresh slab of free slots follows
    // the live ones, so slot numbers stay stable.
    const std::size_t live = requests_.size();
    const std::size_t size =
        std::max<std::size_t>(2 * live, 4 * std::size_t(config_.mshr_entries));
    requests_.resize(size);
    request_index_ = slot_index(size);
    active_writes_ = slot_index(size);
    free_requests_.reserve(size);
    for (std::size_t slot = size; slot-- > live;)
        free_requests_.push_back(std::uint32_t(slot));
    for (std::uint32_t slot = 0; slot < live; ++slot) {
        request_index_.insert(requests_[slot].group, slot);
        if (!requests_[slot].is_demand_read)
            active_writes_.insert(requests_[slot].block, slot);
    }
}

void dnuca_cache::respond(const mem::mem_response& response)
{
    memory_responses_.push(response.ready_at, response);
}

void dnuca_cache::send_packet(injector& from, noc::packet_kind kind,
                              noc::coord src, noc::coord dst, addr_t block,
                              std::uint64_t group, std::uint32_t flit_count,
                              cycle_t now)
{
    const std::uint64_t packet = next_packet_++;
    for (std::uint32_t s = 0; s < flit_count; ++s) {
        noc::flit f;
        f.packet_id = packet;
        f.kind = kind;
        f.src = src;
        f.dst = dst;
        f.addr = block;
        f.txn = group;
        f.seq = std::uint16_t(s);
        f.count = std::uint16_t(flit_count);
        f.injected_at = now;
        from.queue.push_back(std::move(f));
    }
}

void dnuca_cache::inject_from(injector& from, noc::coord at)
{
    if (from.queue.empty())
        return;
    const noc::flit& head = from.queue.front();
    noc::vc_router& router = mesh_->at(at);

    if (!from.mid_packet) {
        // Pick a VC with space for the head flit, round-robin.
        const std::uint32_t vcs = config_.router.virtual_channels;
        bool found = false;
        for (std::uint32_t k = 0; k < vcs && !found; ++k) {
            const std::uint32_t vc = (from.vc + k) % vcs;
            if (router.local_can_accept(vc)) {
                from.vc = vc;
                found = true;
            }
        }
        if (!found) {
            counters_.inc(h_inject_stall_);
            return;
        }
    } else if (!router.local_can_accept(from.vc)) {
        counters_.inc(h_inject_stall_);
        return;
    }

    router.local_inject(from.vc, head);
    from.mid_packet = !head.tail();
    if (head.tail())
        from.vc = (from.vc + 1) % config_.router.virtual_channels;
    from.queue.pop_front();
    counters_.inc(h_flits_injected_);
}

cycle_t dnuca_cache::next_event(cycle_t now) const
{
    // Flits move and queues drain every cycle while anything is in flight:
    // outstanding probe sets (request_index_), injection queues, bank work or
    // mesh traffic make the cache immediately busy. The mesh answers from
    // its router bitmasks, without walking the VC buffers.
    if (!controller_outbox_.queue.empty() ||
        !controller_write_outbox_.queue.empty() || !memory_queue_.empty() ||
        !request_index_.empty())
        return now;
    if (!mesh_->quiescent())
        return now;
    // Quiet: only bank-array completions and main-memory responses remain.
    cycle_t next = memory_responses_.next_ready();
    bool bank_busy = false;
    active_banks_.for_each([&](std::size_t i) {
        const bank& b = banks_[i];
        bank_busy = bank_busy || !b.probes.empty() || !b.write_probes.empty() ||
                    !b.outbox.queue.empty();
        next = std::min(next, b.lookups.next_ready());
    });
    return bank_busy ? now : next;
}

std::uint64_t dnuca_cache::state_digest() const
{
    sim::state_hash h;
    h.mix(counters_.digest());
    h.mix(controller_outbox_.queue.size());
    h.mix(controller_outbox_.vc);
    h.mix(controller_write_outbox_.queue.size());
    h.mix(controller_write_outbox_.vc);
    h.mix(memory_queue_.size());
    h.mix(request_index_.size());
    h.mix(mshrs_.in_use());
    h.mix(memory_responses_.size());
    h.mix(memory_responses_.next_ready());
    h.mix(next_packet_);
    h.mix(next_group_);
    h.mix(mesh_->occupancy_digest());
    for (std::size_t i = 0; i < banks_.size(); ++i) {
        const bank& b = banks_[i];
        if (active_banks_.test(i) == idle(b))
            throw std::logic_error(
                "D-NUCA active-bank mask disagrees with the bank queues");
        h.mix(b.probes.size());
        h.mix(b.write_probes.size());
        h.mix(b.outbox.queue.size());
        h.mix(b.outbox.vc);
        h.mix(b.busy_until);
        h.mix(b.lookups.size());
        h.mix(b.lookups.next_ready());
    }
    for (const auto* e = mshrs_.first_live(); e != nullptr;
         e = mshrs_.next_live(*e))
        if (const txn_id_t txn = memory_txn_[mshrs_.slot_of(*e)]; txn != 0)
            h.mix_unordered(txn * 0x9e3779b97f4a7c15ULL + e->block_addr);
    for (const request_state& state : requests_)
        if (state.group != 0)
            h.mix_unordered(state.group * 0x9e3779b97f4a7c15ULL +
                            state.block + state.miss_replies);
    return h.value();
}

void dnuca_cache::tick(cycle_t now)
{
    process_memory_responses(now);
    eject_and_handle(now);
    run_banks(now);

    // Injection: the controller's single point plus each bank's local
    // port. Latency-critical read probes go first; writes fill idle slots.
    if (!controller_outbox_.queue.empty())
        inject_from(controller_outbox_, {0, 0});
    else
        inject_from(controller_write_outbox_, {0, 0});
    active_banks_.for_each([&](std::size_t i) {
        inject_from(banks_[i].outbox,
                    bank_coord(unsigned(i % config_.bank_sets),
                               unsigned(i / config_.bank_sets) + 1));
        if (idle(banks_[i]))
            active_banks_.clear(i);
    });

    drain_memory_queue(now);
    counters_.inc(h_hops_forwarded_, mesh_->step(now));
}

void dnuca_cache::process_memory_responses(cycle_t now)
{
    while (auto response = memory_responses_.pop_ready(now)) {
        // Memory reads are issued block-aligned, so the response's addr
        // names the block; the per-slot txn id validates the match.
        const addr_t block = response->addr;
        const mem::mshr_entry* pending = mshrs_.find(block);
        if (pending == nullptr ||
            memory_txn_[mshrs_.slot_of(*pending)] != response->id) {
            counters_.inc(h_untracked_response_);
            continue;
        }

        install_at_tail(block, /*dirty=*/false);
        const auto entry = mshrs_.release(block);
        if (upstream_ != nullptr) {
            for (std::uint32_t t = 0; t < entry.target_count; ++t) {
                const auto& target = entry.targets[t];
                mem::mem_response up;
                up.id = target.id;
                up.addr = target.addr;
                up.ready_at = now;
                up.served_by = mem::service_level::memory;
                upstream_->respond(up);
            }
        }
        counters_.inc(h_fills_from_memory_);
    }
}

void dnuca_cache::eject_and_handle(cycle_t now)
{
    // One flit per ejection point per cycle, polled only where the mesh
    // holds ejected flits. Router index order is the controller (0,0)
    // first, then the banks row-major, the order the handlers must see.
    mesh_->for_each_ejecting([&](noc::vc_router& router) {
        const noc::coord at = router.position();
        if (at.y == 0) {
            // Controller rail: (0,0) is its only ejection point.
            if (at.x == 0)
                controller_flit(now, *router.local_eject());
            return;
        }
        const noc::flit f = *router.local_eject();
        const std::size_t i = bank_index(unsigned(at.x), unsigned(at.y));
        switch (f.kind) {
        case noc::packet_kind::request:
            banks_[i].probes.push_back(f);
            active_banks_.set(i);
            break;
        case noc::packet_kind::writeback:
            banks_[i].write_probes.push_back(f);
            active_banks_.set(i);
            break;
        case noc::packet_kind::migrate:
            // Functional swap already applied; the packet models the
            // traffic. Nothing to do at arrival.
            if (f.tail())
                counters_.inc(h_migrations_delivered_);
            break;
        default:
            counters_.inc(h_unexpected_bank_flit_);
            break;
        }
    });
}

void dnuca_cache::run_banks(cycle_t now)
{
    // Active banks only, in row-major order: replies and promotions number
    // their packets in this order.
    active_banks_.for_each([&](std::size_t i) {
        const unsigned row = unsigned(i / config_.bank_sets) + 1;
        const unsigned col = unsigned(i % config_.bank_sets);
        bank& b = banks_[i];

        // Finish lookups whose completion time arrived.
        while (auto probe = b.lookups.pop_ready(now)) {
            const addr_t block = to_bank_addr(probe->addr);
            counters_.inc(h_bank_lookups_);
            const bool is_write_probe =
                probe->kind == noc::packet_kind::writeback;
            const auto hit = b.tags->lookup(block);
            if (hit && !is_write_probe) {
                counters_.inc(h_read_hits_row_[row - 1]);
                counters_.inc(h_bank_read_hits_);
                send_packet(b.outbox, noc::packet_kind::reply,
                            bank_coord(col, row), {0, 0}, probe->addr,
                            probe->txn, flits_for_block(), now);
                if (row > 1)
                    promote(now, col, row, block);
            } else if (hit && is_write_probe) {
                b.tags->set_dirty(block, true);
                counters_.inc(h_bank_write_hits_);
                send_packet(b.outbox, noc::packet_kind::reply,
                            bank_coord(col, row), {0, 0}, probe->addr,
                            probe->txn, 1, now); // write ack
            } else {
                send_packet(b.outbox, noc::packet_kind::nack,
                            bank_coord(col, row), {0, 0}, probe->addr,
                            probe->txn, 1, now);
            }
        }

        // Start the next probe when the array is free; reads first.
        if (b.busy_until <= now &&
            (!b.probes.empty() || !b.write_probes.empty())) {
            auto& queue = b.probes.empty() ? b.write_probes : b.probes;
            const noc::flit probe = queue.take_front();
            b.busy_until = now + config_.bank_initiation;
            const cycle_t done = now + config_.bank_latency;
            b.lookups.push(done > 0 ? done - 1 : 0, probe);
        }
    });
}

void dnuca_cache::promote(cycle_t now, unsigned column, unsigned row,
                          addr_t bank_local)
{
    // Generational promotion: the arrays swap immediately; two migrate
    // packets model the traffic and contention of the exchange.
    if (const auto re = swap_up(column, row, bank_local)) {
        // Both sets full and distinct victims: the doubly-displaced block
        // leaves the cache (zero-copy replacement).
        if (re->dirty)
            memory_queue_.push_back(writeback_of(*re, column));
        counters_.inc(h_promotion_spills_);
    }
    counters_.inc(h_promotions_);

    send_packet(bank_at(column, row).outbox, noc::packet_kind::migrate,
                bank_coord(column, row), bank_coord(column, row - 1),
                bank_local, 0, flits_for_block(), now);
    send_packet(bank_at(column, row - 1).outbox, noc::packet_kind::migrate,
                bank_coord(column, row - 1), bank_coord(column, row),
                bank_local, 0, flits_for_block(), now);
    active_banks_.set(bank_index(column, row - 1)); // the hit bank is active
}

std::optional<mem::evicted_line> dnuca_cache::swap_up(unsigned column,
                                                      unsigned row,
                                                      addr_t local)
{
    // Swap the hit block one row closer to the controller; the closer
    // bank's victim drops into the way it vacated.
    mem::tag_array& lower = *bank_at(column, row).tags; // hit bank (farther)
    mem::tag_array& upper = *bank_at(column, row - 1).tags;
    const auto moving = lower.extract(local);
    if (!moving)
        return std::nullopt;
    if (const auto displaced = upper.install(local, moving->dirty))
        return lower.install(displaced->block_addr, displaced->dirty);
    return std::nullopt;
}

void dnuca_cache::controller_flit(cycle_t now, const noc::flit& f)
{
    if (f.kind == noc::packet_kind::reply && !f.tail())
        return; // wait for the full data packet

    const std::uint32_t slot = request_index_.find(f.txn);
    if (slot == slot_index::npos) {
        counters_.inc(h_orphan_reply_);
        return;
    }
    request_state& state = requests_[slot];

    if (f.kind == noc::packet_kind::reply) {
        if (f.count > 1) {
            // Data reply for a demand read.
            const auto entry = mshrs_.release(state.block);
            if (entry && upstream_ != nullptr) {
                for (std::uint32_t t = 0; t < entry.target_count; ++t) {
                    const auto& target = entry.targets[t];
                    mem::mem_response up;
                    up.id = target.id;
                    up.addr = target.addr;
                    up.ready_at = now;
                    up.served_by = mem::service_level::dnuca;
                    upstream_->respond(up);
                }
            }
            counters_.inc(h_read_hits_);
            close_request(slot);
        } else {
            // Write probe absorbed by a bank: remember the line so
            // follow-up stores skip the probe entirely.
            if (written_lines_.size() < 64) {
                written_lines_.push_back(state.block);
            } else {
                written_lines_[written_cursor_] = state.block;
                written_cursor_ = (written_cursor_ + 1) % written_lines_.size();
            }
            close_request(slot);
        }
        return;
    }

    if (f.kind != noc::packet_kind::nack) {
        counters_.inc(h_unexpected_controller_flit_);
        return;
    }

    if (++state.miss_replies < config_.rows)
        return;

    // All banks of the set missed.
    if (state.is_demand_read) {
        counters_.inc(h_read_misses_);
        mem::mem_request read;
        read.id = ids_.next();
        read.addr = state.block;
        read.size = config_.block_bytes;
        read.kind = mem::access_kind::read;
        read.created_at = now;
        memory_queue_.push_back(read);
        if (const mem::mshr_entry* entry = mshrs_.find(state.block))
            memory_txn_[mshrs_.slot_of(*entry)] = read.id;
        close_request(slot);
    } else {
        // Word write or writeback that found no copy: install at the tail.
        counters_.inc(h_write_installs_);
        install_at_tail(state.block, state.dirty);
        close_request(slot);
    }
}

void dnuca_cache::install_at_tail(addr_t block, bool dirty)
{
    counters_.inc(h_bank_writes_);
    if (const auto victim = tail_insert(block, dirty)) {
        counters_.inc(h_tail_evictions_);
        if (victim->dirty)
            memory_queue_.push_back(writeback_of(*victim, column_of(block)));
    }
}

std::optional<mem::evicted_line> dnuca_cache::tail_insert(addr_t block,
                                                          bool dirty)
{
    return bank_at(column_of(block), config_.rows)
        .tags->install(to_bank_addr(block), dirty);
}

mem::mem_request dnuca_cache::writeback_of(const mem::evicted_line& victim,
                                           unsigned column)
{
    mem::mem_request writeback;
    writeback.id = ids_.next();
    writeback.addr = from_bank_addr(victim.block_addr, column);
    writeback.size = config_.block_bytes;
    writeback.kind = mem::access_kind::writeback;
    writeback.needs_response = false;
    writeback.dirty = victim.dirty;
    return writeback;
}

void dnuca_cache::drain_memory_queue(cycle_t now)
{
    if (memory_queue_.empty() || downstream_ == nullptr)
        return;
    mem::mem_request request = memory_queue_.front();
    request.created_at = now;
    if (downstream_->can_accept(request)) {
        downstream_->accept(request);
        memory_queue_.pop_front();
    }
}

mem::warm_result dnuca_cache::warm_access(const mem::warm_request& request)
{
    // The bank-side content transitions of run_banks() and
    // controller_flit() applied at once (see the warm_access() contract in
    // src/mem/request.h): a read hit promotes one row, a write or
    // writeback hit dirties the line, and every miss inserts at the tail.
    // Victims leave the cache; main memory holds no warmable state. The
    // timing reply never carries dirtiness (the bank keeps its dirty copy;
    // the upper level installs clean), so the result is always {}.
    const addr_t block = request.addr & ~addr_t(config_.block_bytes - 1);
    const unsigned column = column_of(block);
    const addr_t local = to_bank_addr(block);
    const bool read = request.kind == mem::access_kind::read;
    const unsigned row = hit_row(column, local);
    if (row == 0)
        tail_insert(block, !read);
    else if (!read)
        bank_at(column, row).tags->set_dirty(local, true);
    else if (row > 1)
        swap_up(column, row, local);
    return {};
}

unsigned dnuca_cache::hit_row(unsigned column, addr_t local)
{
    for (unsigned row = 1; row <= config_.rows; ++row)
        if (bank_at(column, row).tags->lookup(local))
            return row;
    return 0;
}

void dnuca_cache::prewarm(addr_t addr)
{
    // Spread lines over rows using the bits *above* the bank set index, so
    // a column's four banks tile its share of an 8MB-resident window
    // instead of aliasing into the same sets.
    const addr_t local = to_bank_addr(addr);
    const unsigned row =
        1 + unsigned((local >> (block_shift_ + bank_set_shift_)) %
                     config_.rows);
    bank_at(column_of(addr), row).tags->install(local, false);
}

std::uint64_t dnuca_cache::hits_in_row(unsigned row) const
{
    if (row < 1 || row > h_read_hits_row_.size())
        return 0;
    return counters_.value(h_read_hits_row_[row - 1]);
}

bool dnuca_cache::quiescent() const
{
    if (!controller_outbox_.queue.empty() ||
        !controller_write_outbox_.queue.empty() || !memory_queue_.empty() ||
        !mshrs_.empty() || !request_index_.empty() ||
        !memory_responses_.empty())
        return false;
    return !active_banks_.any() && mesh_->quiescent();
}

} // namespace lnuca::dnuca
