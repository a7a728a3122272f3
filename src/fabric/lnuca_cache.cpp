#include "src/fabric/lnuca_cache.h"

#include "src/common/log.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace lnuca::fabric {

namespace {

std::uint32_t position_of(const std::vector<tile_index>& list, tile_index value)
{
    for (std::uint32_t i = 0; i < list.size(); ++i)
        if (list[i] == value)
            return i;
    throw std::logic_error("wiring inconsistency: source not in input list");
}

} // namespace

lnuca_cache::lnuca_cache(const fabric_config& config, mem::txn_id_source& ids)
    : config_(config),
      ids_(ids),
      geo_(config.levels),
      busy_tiles_(geo_.tile_count()),
      mshrs_(config.mshr_entries, config.mshr_secondary),
      search_by_slot_(config.mshr_entries),
      rng_(config.seed)
{
    for (unsigned level = 2; level <= config.levels; ++level)
        h_read_hits_level_.push_back(
            counters_.handle_of("read_hits_level_" + std::to_string(level)));
    tiles_.reserve(geo_.tile_count());
    for (tile_index i = 0; i < geo_.tile_count(); ++i) {
        const bool root_fed =
            std::find(geo_.root_replacement_outputs().begin(),
                      geo_.root_replacement_outputs().end(),
                      i) != geo_.root_replacement_outputs().end();
        tile_config tc = config.tile;
        tc.seed = config.tile.seed + i;
        tiles_.emplace_back(tc, unsigned(geo_.transport_inputs(i).size()),
                            unsigned(geo_.replacement_inputs(i).size() +
                                     (root_fed ? 1 : 0)));
    }

    // Transport wiring: receiver slot of each unidirectional link.
    d_out_.resize(geo_.tile_count());
    for (tile_index i = 0; i < geo_.tile_count(); ++i) {
        for (const tile_index t : geo_.transport_outputs(i)) {
            if (t == root_index)
                d_out_[i].push_back(
                    {root_index, position_of(geo_.root_transport_inputs(), i)});
            else
                d_out_[i].push_back({t, position_of(geo_.transport_inputs(t), i)});
        }
        if (d_out_[i].size() > max_links)
            throw std::logic_error("tile transport fan-out exceeds link mask");
    }

    // Replacement wiring. The r-tile's link lands in the extra (last) slot.
    u_out_.resize(geo_.tile_count());
    for (tile_index i = 0; i < geo_.tile_count(); ++i) {
        for (const tile_index t : geo_.replacement_outputs(i))
            u_out_[i].push_back({t, position_of(geo_.replacement_inputs(t), i)});
        if (u_out_[i].size() > max_links)
            throw std::logic_error("tile replacement fan-out exceeds link mask");
    }
    for (const tile_index t : geo_.root_replacement_outputs())
        root_u_out_.push_back(
            {t, std::uint32_t(geo_.replacement_inputs(t).size())});

    root_arrivals_.assign(geo_.root_transport_inputs().size(),
                          noc::sync_fifo<transport_msg>(config.tile.buffer_depth));

    // Pre-size the rings and the refill heap for their structural bounds so
    // steady-state cycles never touch the allocator.
    inject_queue_.reserve(config.inject_queue_depth + config.mshr_entries);
    evict_queue_.reserve(config.evict_queue_depth);
    exit_queue_.reserve(config.exit_queue_depth);
    downstream_queue_.reserve(config.downstream_queue_depth);
    refills_.reserve(config.mshr_entries + 8);

    tiles_by_level_.resize(config.levels + 1);
    for (unsigned level = 2; level <= config.levels; ++level)
        tiles_by_level_[level] = geo_.tiles_in_level(level);
}

bool lnuca_cache::can_accept(const mem::mem_request& request) const
{
    if (request.kind == mem::access_kind::writeback)
        return evict_queue_.size() < config_.evict_queue_depth;

    const addr_t block = request.addr & ~addr_t(config_.tile.block_bytes - 1);
    if (const auto* entry = mshrs_.find(block)) {
        const bool pure_write = state_of(*entry).is_write;
        if (!request.needs_response)
            return true; // stores absorb into the entry as a dirty merge
        // A demand access cannot merge into a fire-and-forget write search
        // (it would never be answered); it waits until that search drains.
        if (pure_write)
            return false;
        return entry->target_count < config_.mshr_secondary;
    }
    return mshrs_.can_allocate() &&
           inject_queue_.size() < config_.inject_queue_depth;
}

void lnuca_cache::accept(const mem::mem_request& request)
{
    const cycle_t now = request.created_at;

    if (request.kind == mem::access_kind::writeback) {
        counters_.inc(h_evictions_in_);
        evict_queue_.push_back(replace_msg{request.addr, request.dirty});
        return;
    }

    const addr_t block = request.addr & ~addr_t(config_.tile.block_bytes - 1);
    const bool fire_and_forget = !request.needs_response;

    // The r-tile's output buffers (the eviction queue) are searched before
    // launching a network search, avoiding false misses for blocks that
    // just left the L1.
    for (std::size_t qi = 0; qi < evict_queue_.size(); ++qi) {
        replace_msg& victim = evict_queue_[qi];
        if (victim.block != block)
            continue;
        counters_.inc(h_root_ubuffer_hit_);
        if (fire_and_forget) {
            victim.dirty = true;
            return;
        }
        const bool dirty = victim.dirty;
        evict_queue_.erase_at(qi);
        counters_.inc(h_read_hit_);
        counters_.inc(h_read_hits_level_.front(),
                      request.kind == mem::access_kind::read); // level 2
        if (upstream_ != nullptr) {
            mem::mem_response response;
            response.id = request.id;
            response.addr = request.addr;
            response.ready_at = now + 1;
            response.served_by = mem::service_level::lnuca_tile;
            response.fabric_level = 2;
            response.dirty = dirty;
            upstream_->respond(response);
        }
        return;
    }

    if (mem::mshr_entry* entry = mshrs_.find(block)) {
        search_state& state = state_of(*entry);
        if (fire_and_forget) {
            state.write_merged = true;
            counters_.inc(h_store_merged_);
            return;
        }
        mshrs_.add_target(*entry, {request.id, request.addr, request.kind,
                                   request.created_at});
        counters_.inc(h_mshr_merge_);
        return;
    }

    auto& entry = mshrs_.allocate(block, now);
    if (!fire_and_forget)
        mshrs_.add_target(entry,
                          {request.id, request.addr, request.kind,
                           request.created_at});

    search_state& state = state_of(entry);
    state = search_state{};
    state.is_write = fire_and_forget;

    search_msg msg;
    msg.block = block;
    msg.is_write = fire_and_forget;
    inject_queue_.push_back(msg);
    counters_.inc(h_searches_requested_);
}

void lnuca_cache::respond(const mem::mem_response& response)
{
    refills_.push(response.ready_at, response);
}

void lnuca_cache::tick(cycle_t now)
{
    process_downstream_responses(now);
    process_root_arrivals(now);
    inject_evictions(now);
    inject_searches(now);
    // Ascending index order, as a full walk would visit them: an idle tile
    // draws no random number and bumps no counter, and a tile first staged
    // this cycle stays a no-op until commit, so the skipped tiles change
    // nothing.
    busy_tiles_.for_each(
        [&](std::size_t i) { evaluate_tile(now, tile_index(i)); });
    evaluate_global_misses(now);
    drain_downstream_queues(now);
    commit_cycle();
}

cycle_t lnuca_cache::next_event(cycle_t now) const
{
    // Anything queued, latched or in flight inside the fabric advances
    // every cycle (searches propagate, transport and replacement hop,
    // queues drain), so the fabric is busy until all of it settles.
    if (!inject_queue_.empty() || !evict_queue_.empty() ||
        !exit_queue_.empty() || !downstream_queue_.empty())
        return now;
    if (busy_tiles_.any())
        return now;
    for (const auto& fifo : root_arrivals_)
        if (!fifo.idle())
            return now;
    // Quiet fabric: the only future work is time-stamped - next-level
    // refills and the miss-line gather of any still-active search (the
    // gather fires on exact cycle equality, so its bound must be included
    // even though the search wave itself has already left the tiles).
    cycle_t next = refills_.next_ready();
    for (const auto* e = mshrs_.first_live(); e != nullptr;
         e = mshrs_.next_live(*e)) {
        const search_state& state = state_of(*e);
        if (state.active)
            next = std::min(next, std::max(now, state.gather_at));
    }
    return next;
}

std::uint64_t lnuca_cache::state_digest() const
{
    sim::state_hash h;
    h.mix(counters_.digest());
    h.mix(inject_queue_.size());
    h.mix(evict_queue_.size());
    h.mix(exit_queue_.size());
    h.mix(downstream_queue_.size());
    h.mix(refills_.size());
    h.mix(refills_.next_ready());
    h.mix(mshrs_.in_use());
    for (const auto& fifo : root_arrivals_)
        h.mix(fifo.total_size());
    for (tile_index i = 0; i < tiles_.size(); ++i) {
        const tile& t = tiles_[i];
        if (busy_tiles_.test(i) == t.idle())
            throw std::logic_error(
                "busy-tile mask disagrees with tile " + std::to_string(i));
        h.mix(t.ma.has_value() ? t.ma->block : no_addr);
        h.mix(t.ma_next.has_value() ? t.ma_next->block : no_addr);
        h.mix(std::uint64_t(t.phase));
        h.mix(t.pending_block);
        for (const auto& fifo : t.d_in)
            h.mix(fifo.total_size());
        for (const auto& fifo : t.u_in)
            h.mix(fifo.total_size());
    }
    for (const auto* e = mshrs_.first_live(); e != nullptr;
         e = mshrs_.next_live(*e)) {
        const search_state& state = state_of(*e);
        h.mix_unordered(e->block_addr + (state.active ? 1 : 0) +
                        (state.hit ? 2 : 0) + (state.marked ? 4 : 0) +
                        state.gather_at * 8);
        if (state.downstream_txn != 0)
            h.mix_unordered(state.downstream_txn * 0x9e3779b97f4a7c15ULL +
                            e->block_addr);
    }
    return h.value();
}

void lnuca_cache::process_downstream_responses(cycle_t now)
{
    while (auto response = refills_.pop_ready(now)) {
        // Downstream reads are issued block-aligned, so the response's addr
        // names the block; the per-slot txn id validates the match (the old
        // txn->block hash map, without the per-miss node churn).
        mem::mshr_entry* entry = mshrs_.find(response->addr);
        if (entry == nullptr ||
            state_of(*entry).downstream_txn != response->id) {
            counters_.inc(h_untracked_response_);
            continue;
        }
        const bool merged_dirty = state_of(*entry).write_merged;
        const auto released = mshrs_.release(response->addr);
        respond_to_targets(now, released.targets, released.target_count,
                           response->served_by, 0,
                           response->dirty || merged_dirty);
        counters_.inc(h_fills_from_next_level_);
    }
}

void lnuca_cache::process_root_arrivals(cycle_t now)
{
    for (auto& fifo : root_arrivals_) {
        auto msg = fifo.pop();
        if (!msg)
            continue;
        counters_.inc(h_transport_actual_cycles_, now - msg->hit_cycle);
        counters_.inc(h_transport_min_cycles_, msg->min_hops);
        counters_.inc(h_blocks_delivered_);

        mem::mshr_entry* entry = mshrs_.find(msg->block);
        if (entry == nullptr) {
            counters_.inc(h_untracked_arrival_);
            continue;
        }
        const bool merged_dirty = state_of(*entry).write_merged;
        const auto released = mshrs_.release(msg->block);
        respond_to_targets(now, released.targets, released.target_count,
                           mem::service_level::lnuca_tile, msg->level,
                           msg->dirty || merged_dirty);
    }
}

void lnuca_cache::inject_searches(cycle_t now)
{
    if (inject_queue_.empty())
        return;
    const search_msg msg = inject_queue_.take_front();

    mem::mshr_entry* entry = mshrs_.find(msg.block);
    if (entry == nullptr) {
        // The miss was satisfied while the search waited (cannot happen by
        // construction; counted defensively).
        counters_.inc(h_orphan_search_);
        return;
    }
    search_state& state = state_of(*entry);
    state.active = true;
    state.hit = false;
    state.marked = false;
    state.gather_at = now + geo_.rings() + 1;

    broadcast(geo_.root_search_children(), msg);
    counters_.inc(h_searches_injected_);
}

std::size_t lnuca_cache::pick_output(std::size_t available)
{
    if (available <= 1)
        return 0;
    return config_.random_routing ? std::size_t(rng_.below(available)) : 0;
}

const lnuca_cache::link*
lnuca_cache::pick_replacement_link(const std::vector<link>& outputs)
{
    std::array<std::uint32_t, max_links> candidates;
    std::size_t n = 0;
    for (std::size_t k = 0; k < outputs.size(); ++k) {
        const link& l = outputs[k];
        if (tiles_[l.target].u_in[l.slot].on())
            candidates[n++] = std::uint32_t(k);
    }
    return n == 0 ? nullptr : &outputs[candidates[pick_output(n)]];
}

bool lnuca_cache::any_transport_output_free(tile_index i,
                                            link_mask used_outputs) const
{
    for (std::size_t k = 0; k < d_out_[i].size(); ++k) {
        if (used_outputs & (link_mask(1) << k))
            continue;
        const link& l = d_out_[i][k];
        const bool on = l.target == root_index
                            ? root_arrivals_[l.slot].on()
                            : tiles_[l.target].d_in[l.slot].on();
        if (on)
            return true;
    }
    return false;
}

bool lnuca_cache::push_transport(cycle_t, tile_index i, const transport_msg& msg,
                                 link_mask& used_outputs)
{
    std::array<std::uint32_t, max_links> candidates;
    std::size_t n = 0;
    for (std::size_t k = 0; k < d_out_[i].size(); ++k) {
        if (used_outputs & (link_mask(1) << k))
            continue;
        const link& l = d_out_[i][k];
        const bool on = l.target == root_index
                            ? root_arrivals_[l.slot].on()
                            : tiles_[l.target].d_in[l.slot].on();
        if (on)
            candidates[n++] = std::uint32_t(k);
    }
    if (n == 0)
        return false;
    const std::size_t k = candidates[pick_output(n)];
    const link& l = d_out_[i][k];
    if (l.target == root_index) {
        root_arrivals_[l.slot].push(msg);
    } else {
        tiles_[l.target].d_in[l.slot].push(msg);
        busy_tiles_.set(l.target);
    }
    used_outputs |= link_mask(1) << k;
    counters_.inc(h_transport_hops_);
    return true;
}

void lnuca_cache::send_hit(cycle_t now, tile_index i, unsigned level,
                           addr_t block, bool dirty, link_mask& used_outputs)
{
    transport_msg out;
    out.block = block;
    out.dirty = dirty;
    out.level = std::uint8_t(level);
    out.hit_cycle = now;
    out.min_hops = geo_.transport_distance(geo_.coord_of(i));
    push_transport(now, i, out, used_outputs);
}

void lnuca_cache::mark_search(tile_index i, const search_msg& msg,
                              search_state& state)
{
    state.marked = true;
    counters_.inc(h_transport_contention_);
    // Re-emit marked so the miss line sees the restart.
    search_msg marked = msg;
    marked.marked = true;
    broadcast(geo_.search_children(i), marked);
}

void lnuca_cache::broadcast(const std::vector<tile_index>& children,
                            const search_msg& msg)
{
    for (const tile_index child : children) {
        tiles_[child].ma_next = msg;
        busy_tiles_.set(child);
        counters_.inc(h_search_broadcast_hops_);
    }
}

void lnuca_cache::evaluate_tile(cycle_t now, tile_index i)
{
    tile& t = tiles_[i];
    link_mask used_outputs = 0;
    const bool had_search = t.ma.has_value();

    // --- Search operation: cache access + one-hop routing, one cycle ----
    if (had_search) {
        const search_msg msg = *t.ma;
        t.ma.reset();
        bool stop_propagation = false;
        mem::mshr_entry* search_entry = mshrs_.find(msg.block);
        const bool state_known = search_entry != nullptr;
        auto state = [&]() -> search_state& { return state_of(*search_entry); };

        if (!msg.marked && state_known) {
            counters_.inc(h_tile_tag_lookups_);
            const unsigned level = geo_.level_of(geo_.coord_of(i));

            // U-buffer comparators catch blocks in replacement transit.
            bool u_hit = false;
            for (auto& fifo : t.u_in) {
                if (msg.is_write) {
                    bool found = false;
                    fifo.for_each([&](replace_msg& r) {
                        if (r.block == msg.block) {
                            r.dirty = true;
                            found = true;
                        }
                    });
                    if (found) {
                        u_hit = true;
                        state().hit = true;
                        counters_.inc(h_store_hits_in_transit_);
                    }
                } else if (fifo.find([&](const replace_msg& r) {
                               return r.block == msg.block;
                           }) != nullptr) {
                    // Extract only if the block can start transport now.
                    if (any_transport_output_free(i, used_outputs)) {
                        auto taken = fifo.extract([&](const replace_msg& r) {
                            return r.block == msg.block;
                        });
                        send_hit(now, i, level, taken->block, taken->dirty,
                                 used_outputs);
                        state().hit = true;
                        counters_.inc(h_ubuffer_hits_);
                        counters_.inc(h_read_hits_level_[level - 2]);
                    } else {
                        mark_search(i, msg, state());
                    }
                    u_hit = true;
                }
                if (u_hit)
                    break;
            }

            if (u_hit) {
                stop_propagation = true;
            } else if (t.cache.probe(msg.block)) {
                if (msg.is_write) {
                    t.cache.lookup(msg.block); // refresh recency
                    t.cache.set_dirty(msg.block, true);
                    state().hit = true;
                    counters_.inc(h_store_hits_in_place_);
                    stop_propagation = true;
                } else if (any_transport_output_free(i, used_outputs)) {
                    const auto line = t.cache.extract(msg.block);
                    send_hit(now, i, level, msg.block, line->dirty,
                             used_outputs);
                    state().hit = true;
                    counters_.inc(h_tile_hits_);
                    counters_.inc(h_tile_data_reads_);
                    counters_.inc(h_read_hits_level_[level - 2]);
                    stop_propagation = true;
                } else {
                    mark_search(i, msg, state());
                    stop_propagation = true; // marked copy already forwarded
                }
            }
        }

        if (!stop_propagation)
            broadcast(geo_.search_children(i), msg);
    }

    // --- Transport operation: forward buffered blocks towards the root --
    const std::size_t d_links = t.d_in.size();
    for (std::size_t n = 0; n < d_links; ++n) {
        auto& fifo = t.d_in[n];
        const transport_msg* head = fifo.front();
        if (head == nullptr)
            continue;
        if (push_transport(now, i, *head, used_outputs))
            fifo.pop();
        else
            counters_.inc(h_transport_blocked_);
    }

    // --- Replacement operation: only during search-idle cycles ----------
    if (!had_search)
        run_replacement(now, i);
}

void lnuca_cache::run_replacement(cycle_t now, tile_index i)
{
    (void)now;
    tile& t = tiles_[i];

    if (t.phase == tile::repl_phase::write_pending) {
        auto& fifo = t.u_in[t.pending_u];
        const replace_msg* head = fifo.front();
        if (head == nullptr || head->block != t.pending_block) {
            // The search operation extracted the in-transit block.
            t.phase = tile::repl_phase::idle;
            t.pending_u = 0;
            t.pending_block = no_addr;
            return;
        }
        const replace_msg msg = *fifo.pop();
        if (auto displaced = t.cache.install(msg.block, msg.dirty)) {
            // A way was freed in phase one; this indicates a logic error.
            LNUCA_ERROR("tile install displaced a line unexpectedly");
            counters_.inc(h_install_conflicts_);
            exit_queue_.push_back(replace_msg{displaced->block_addr,
                                              displaced->dirty});
        }
        counters_.inc(h_tile_data_writes_);
        t.phase = tile::repl_phase::idle;
        t.pending_u = 0;
        t.pending_block = no_addr;
        return;
    }

    // Phase one: pick an incoming victim, make room for it if needed.
    const std::size_t links = t.u_in.size();
    const replace_msg* head = nullptr;
    std::size_t chosen = 0;
    for (std::size_t n = 0; n < links; ++n) {
        const std::size_t k = (t.repl_rotate + n) % links;
        if ((head = t.u_in[k].front()) != nullptr) {
            chosen = k;
            break;
        }
    }
    if (head == nullptr)
        return;
    t.repl_rotate = (chosen + 1) % std::max<std::size_t>(links, 1);

    const bool room = t.cache.set_has_free_way(head->block) ||
                      t.cache.probe(head->block).has_value();
    if (!room) {
        // Choose an On output U channel (or the exit path on corner tiles)
        // and read the victim out; the incoming block lands next idle cycle.
        const link* out = pick_replacement_link(u_out_[i]);
        const bool exit_ok = geo_.is_exit_tile(i) &&
                             exit_queue_.size() < config_.exit_queue_depth;
        if (out == nullptr && !exit_ok) {
            counters_.inc(h_replacement_blocked_);
            return;
        }
        const auto victim = t.cache.evict_victim(head->block);
        counters_.inc(h_tile_data_reads_);
        const replace_msg moving{victim.block_addr, victim.dirty};
        if (out != nullptr) {
            tiles_[out->target].u_in[out->slot].push(moving);
            busy_tiles_.set(out->target);
        } else {
            exit_queue_.push_back(moving);
        }
        counters_.inc(h_replacement_hops_);
    }

    t.phase = tile::repl_phase::write_pending;
    t.pending_u = chosen;
    t.pending_block = head->block;
}

void lnuca_cache::inject_evictions(cycle_t)
{
    if (evict_queue_.empty())
        return;
    const link* l = pick_replacement_link(root_u_out_);
    if (l == nullptr) {
        counters_.inc(h_eviction_inject_blocked_);
        return;
    }
    tiles_[l->target].u_in[l->slot].push(evict_queue_.take_front());
    busy_tiles_.set(l->target);
    counters_.inc(h_replacement_hops_);
    counters_.inc(h_evictions_injected_);
}

void lnuca_cache::evaluate_global_misses(cycle_t now)
{
    // Live MSHR entries iterate in allocation order; an entry releasing
    // itself is safe because the successor is fetched first (the slab keeps
    // links intact for the released node's neighbours).
    for (mem::mshr_entry* e = mshrs_.first_live(); e != nullptr;) {
        mem::mshr_entry* next = mshrs_.next_live(*e);
        search_state& state = state_of(*e);
        const addr_t block = e->block_addr;
        if (!state.active || state.gather_at != now) {
            e = next;
            continue;
        }
        state.active = false;
        counters_.inc(h_miss_line_gathers_);

        if (state.hit) {
            // Reads: the block is in transport; the MSHR is released when it
            // reaches the r-tile. Pure stores landed in place: finish here.
            if (state.is_write)
                mshrs_.release(block);
            e = next;
            continue;
        }

        if (state.marked) {
            // Transport contention: the miss line bounces the request back
            // to the r-tile, which restarts the search.
            search_msg msg;
            msg.block = block;
            msg.is_write = state.is_write;
            inject_queue_.push_back(msg);
            counters_.inc(h_search_restarts_);
            e = next;
            continue;
        }

        // Global miss. The block may be sitting in the exit path.
        bool found_in_exit = false;
        for (std::size_t qi = 0; qi < exit_queue_.size(); ++qi) {
            replace_msg& exiting = exit_queue_[qi];
            if (exiting.block != block)
                continue;
            found_in_exit = true;
            const bool dirty = exiting.dirty || state.write_merged;
            if (state.is_write) {
                exiting.dirty = true;
                mshrs_.release(block);
                break;
            }
            exit_queue_.erase_at(qi);
            const auto released = mshrs_.release(block);
            if (released)
                respond_to_targets(now, released.targets,
                                   released.target_count,
                                   mem::service_level::lnuca_tile,
                                   std::uint8_t(config_.levels), dirty);
            counters_.inc(h_exit_snoop_hits_);
            break;
        }
        if (found_in_exit) {
            e = next;
            continue;
        }

        // Bounded next-level ring: at the configured depth the miss line
        // re-arms the gather for the next cycle instead of letting the ring
        // regrow (zero-allocation hot path). next_event() already bounds on
        // active gather_at, so idle-skip stays honest across the stall.
        if (downstream_queue_.size() >= config_.downstream_queue_depth) {
            state.active = true;
            state.gather_at = now + 1;
            counters_.inc(h_downstream_backpressure_);
            e = next;
            continue;
        }

        counters_.inc(h_global_misses_);
        // A global miss for a block actually present in the fabric would be
        // a search correctness bug; exclusion makes this impossible, so
        // paranoid runs count it defensively rather than tolerate it
        // silently.
        if (paranoid_ && copies_of(block) != 0)
            counters_.inc(h_false_global_misses_);
        if (state.is_write) {
            // Fire-and-forget store miss leaves towards the next level.
            mem::mem_request write;
            write.id = ids_.next();
            write.addr = block;
            write.size = config_.tile.block_bytes;
            write.kind = mem::access_kind::write;
            write.created_at = now;
            write.needs_response = false;
            downstream_queue_.push_back(write);
            note_downstream_high_water();
            mshrs_.release(block);
            counters_.inc(h_write_misses_out_);
            e = next;
            continue;
        }

        mem::mem_request read;
        read.id = ids_.next();
        read.addr = block;
        read.size = config_.tile.block_bytes;
        read.kind = mem::access_kind::read;
        read.created_at = now;
        downstream_queue_.push_back(read);
        note_downstream_high_water();
        state.downstream_txn = read.id;
        mshrs_.mark_issued(*e);
        e = next;
    }
}

void lnuca_cache::note_downstream_high_water()
{
    if (downstream_queue_.size() > downstream_queue_high_water_) {
        counters_.inc(h_downstream_queue_high_water_,
                      downstream_queue_.size() - downstream_queue_high_water_);
        downstream_queue_high_water_ = downstream_queue_.size();
    }
}

void lnuca_cache::drain_downstream_queues(cycle_t now)
{
    if (downstream_ == nullptr)
        return;

    // Global misses and store misses, in order.
    if (!downstream_queue_.empty()) {
        mem::mem_request request = downstream_queue_.front();
        request.created_at = now;
        if (downstream_->can_accept(request)) {
            downstream_->accept(request);
            downstream_queue_.pop_front();
        }
    }

    // Corner-tile victims: dirty blocks write back, clean ones are already
    // present in the (inclusive) next level and are dropped.
    if (!exit_queue_.empty()) {
        const replace_msg victim = exit_queue_.front();
        if (!victim.dirty) {
            exit_queue_.pop_front();
            counters_.inc(h_clean_exits_dropped_);
        } else {
            mem::mem_request writeback;
            writeback.id = ids_.next();
            writeback.addr = victim.block;
            writeback.size = config_.tile.block_bytes;
            writeback.kind = mem::access_kind::writeback;
            writeback.created_at = now;
            writeback.needs_response = false;
            writeback.dirty = true;
            if (downstream_->can_accept(writeback)) {
                downstream_->accept(writeback);
                exit_queue_.pop_front();
                counters_.inc(h_dirty_exits_written_back_);
            }
        }
    }
}

void lnuca_cache::commit_cycle()
{
    // Committing an idle tile is a no-op, so only busy tiles commit; a tile
    // left with nothing latched or buffered leaves the mask.
    busy_tiles_.for_each([&](std::size_t i) {
        tiles_[i].commit();
        if (tiles_[i].idle())
            busy_tiles_.clear(i);
    });
    for (auto& fifo : root_arrivals_)
        fifo.commit();
}

void lnuca_cache::respond_to_targets(cycle_t now,
                                     const mem::mshr_target* targets,
                                     std::uint32_t count,
                                     mem::service_level origin,
                                     std::uint8_t level, bool dirty)
{
    if (upstream_ == nullptr)
        return;
    for (std::uint32_t i = 0; i < count; ++i) {
        const mem::mshr_target& target = targets[i];
        mem::mem_response response;
        response.id = target.id;
        response.addr = target.addr;
        response.ready_at = now;
        response.served_by = origin;
        response.fabric_level = level;
        response.dirty = dirty || target.kind == mem::access_kind::write;
        upstream_->respond(response);
    }
}

std::uint64_t lnuca_cache::read_hits_in_level(unsigned level) const
{
    if (level < 2 || level - 2 >= h_read_hits_level_.size())
        return 0;
    return counters_.value(h_read_hits_level_[level - 2]);
}

std::uint64_t lnuca_cache::tile_capacity_bytes() const
{
    return std::uint64_t(geo_.tile_count()) * config_.tile.size_bytes;
}

mem::warm_result lnuca_cache::warm_access(const mem::warm_request& request)
{
    // The timed path's content transitions, applied at once (see the
    // warm_access() contract in src/mem/request.h).
    const addr_t block = request.addr & ~addr_t(config_.tile.block_bytes - 1);
    switch (request.kind) {
    case mem::access_kind::read:
        // A search hit extracts the block (content exclusion: it moves into
        // the r-tile). A global miss fetches from the next level; the fill
        // travels straight to the r-tile.
        if (mem::tag_array* tags = holder_of(block))
            return {tags->extract(block)->dirty, false};
        if (downstream_ != nullptr)
            return {downstream_
                        ->warm_access({block, mem::access_kind::read, false})
                        .dirty,
                    false};
        return {};
    case mem::access_kind::write:
        // A store hit updates the tile in place; a store miss is forwarded.
        if (mem::tag_array* tags = holder_of(block)) {
            tags->lookup(block);
            tags->set_dirty(block, true);
        } else if (downstream_ != nullptr) {
            downstream_->warm_access({block, mem::access_kind::write, false});
        }
        return {};
    case mem::access_kind::writeback: {
        // The replacement domino: each tile on the victim's path keeps the
        // block it receives, or passes its own victim on over its link
        // choice. At quiescence every link is On, so only an exit tile
        // (no outputs) sends its victim out; a dirty one is written back.
        addr_t moving = block;
        bool moving_dirty = request.dirty;
        for (const link* l = pick_replacement_link(root_u_out_); l != nullptr;
             l = pick_replacement_link(u_out_[l->target])) {
            const auto victim = tiles_[l->target].cache.install(moving,
                                                                moving_dirty);
            if (!victim)
                return {};
            moving = victim->block_addr;
            moving_dirty = victim->dirty;
        }
        if (moving_dirty && downstream_ != nullptr)
            downstream_->warm_access(
                {moving, mem::access_kind::writeback, true});
        return {};
    }
    }
    return {};
}

mem::tag_array* lnuca_cache::holder_of(addr_t block)
{
    for (unsigned level = 2; level <= config_.levels; ++level)
        for (const tile_index i : tiles_by_level_[level])
            if (tiles_[i].cache.probe(block))
                return &tiles_[i].cache;
    return nullptr;
}

bool lnuca_cache::prewarm(addr_t addr)
{
    const addr_t block = addr & ~addr_t(config_.tile.block_bytes - 1);
    for (unsigned level = 2; level <= config_.levels; ++level) {
        for (const tile_index i : tiles_by_level_[level]) {
            // Present already (exclusion holds) or placed in a free way.
            if (tiles_[i].cache.install_if_room(block) !=
                mem::tag_array::room_result::full)
                return true;
        }
    }
    return false;
}

unsigned lnuca_cache::copies_of(addr_t block) const
{
    unsigned copies = 0;
    for (const auto& t : tiles_) {
        if (t.cache.probe(block))
            ++copies;
        if (t.u_buffer_find(block) != nullptr)
            ++copies;
        for (const auto& fifo : t.d_in)
            if (fifo.find([&](const transport_msg& m) { return m.block == block; }))
                ++copies;
    }
    for (const auto& fifo : root_arrivals_)
        if (fifo.find([&](const transport_msg& m) { return m.block == block; }))
            ++copies;
    for (const auto& m : evict_queue_)
        copies += m.block == block;
    for (const auto& m : exit_queue_)
        copies += m.block == block;
    return copies;
}

bool lnuca_cache::quiescent() const
{
    // An empty MSHR slab implies no active searches and no outstanding
    // downstream reads (both live in the per-slot state).
    if (!inject_queue_.empty() || !evict_queue_.empty() || !exit_queue_.empty() ||
        !downstream_queue_.empty() || !refills_.empty() || !mshrs_.empty())
        return false;
    for (const auto& fifo : root_arrivals_)
        if (!fifo.empty())
            return false;
    return !busy_tiles_.any();
}

} // namespace lnuca::fabric
