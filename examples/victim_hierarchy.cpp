// Victim-hierarchy study: drives the fabric directly (no core) to show the
// distributed victim cache at work - evictions domino outwards in latency
// order, reuse pulls blocks back, corner tiles spill to the next level.
//
//   ./examples/victim_hierarchy [--levels 3] [--blocks 4096]
#include "src/lnuca.h"

#include <cstdio>
#include <map>

using namespace lnuca;

namespace {

struct recorder final : mem::mem_client {
    std::map<txn_id_t, mem::mem_response> responses;
    void respond(const mem::mem_response& r) override { responses[r.id] = r; }
};

struct silent_l3 final : sim::ticked, mem::mem_port {
    bool can_accept(const mem::mem_request&) const override { return true; }
    void accept(const mem::mem_request& r) override
    {
        if (r.kind == mem::access_kind::read && r.needs_response)
            pending.push(r.created_at + 20, r);
    }
    void tick(cycle_t now) override
    {
        while (auto r = pending.pop_ready(now)) {
            mem::mem_response resp;
            resp.id = r->id;
            resp.addr = r->addr;
            resp.ready_at = now;
            resp.served_by = mem::service_level::l3;
            if (client)
                client->respond(resp);
        }
    }
    mem::mem_client* client = nullptr;
    sim::timed_queue<mem::mem_request> pending;
};

} // namespace

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    if (!args.only_known("victim_hierarchy", {"levels", "blocks"}))
        return 2;
    fabric::fabric_config config;
    config.levels = unsigned(args.get_u64("levels", 3));
    const std::uint64_t blocks = args.get_u64("blocks", 4096);

    mem::txn_id_source ids;
    fabric::lnuca_cache fab(config, ids);
    recorder client;
    silent_l3 l3;
    fab.set_upstream(&client);
    fab.set_downstream(&l3);
    l3.client = &fab;

    sim::engine engine;
    engine.add(fab);
    engine.add(l3);

    std::printf("Phase 1: evict %llu distinct blocks into a %s fabric\n",
                (unsigned long long)blocks,
                format_size(fab.tile_capacity_bytes()).c_str());
    for (std::uint64_t i = 0; i < blocks; ++i) {
        mem::mem_request evict;
        evict.id = ids.next();
        evict.addr = 0x100000 + i * 32;
        evict.kind = mem::access_kind::writeback;
        evict.needs_response = false;
        evict.dirty = i % 3 == 0;
        evict.created_at = engine.now();
        while (!fab.can_accept(evict)) {
            engine.run(1);
            evict.created_at = engine.now();
        }
        fab.accept(evict);
        engine.run(2);
    }
    engine.run(1000);

    const auto& c = fab.counters();
    std::uint64_t occupancy = 0;
    for (unsigned i = 0; i < fab.geo().tile_count(); ++i)
        occupancy += fab.tile_at(i).cache.valid_count();

    text_table t1("After the eviction storm");
    t1.set_header({"metric", "value"});
    t1.add_row({"fabric occupancy",
                std::to_string(occupancy) + " / " +
                    std::to_string(fab.tile_capacity_bytes() / 32)});
    t1.add_row({"replacement hops", std::to_string(c.get("replacement_hops"))});
    t1.add_row({"dirty blocks written back",
                std::to_string(c.get("dirty_exits_written_back"))});
    t1.add_row({"clean blocks dropped at the exits",
                std::to_string(c.get("clean_exits_dropped"))});
    t1.print();

    std::printf("Phase 2: read the most recent quarter back "
                "(the fabric holds the hottest window)\n");
    std::uint64_t asked = 0;
    for (std::uint64_t i = blocks - blocks / 4; i < blocks; ++i) {
        mem::mem_request read;
        read.id = ids.next();
        read.addr = 0x100000 + i * 32;
        read.kind = mem::access_kind::read;
        read.created_at = engine.now();
        while (!fab.can_accept(read)) {
            engine.run(1);
            read.created_at = engine.now();
        }
        fab.accept(read);
        ++asked;
        engine.run(3);
    }
    engine.run(2000);

    std::uint64_t fabric_hits = 0, next_level = 0;
    for (const auto& [id, r] : client.responses) {
        if (r.served_by == mem::service_level::lnuca_tile)
            ++fabric_hits;
        else
            ++next_level;
    }

    text_table t2("Reuse results");
    t2.set_header({"metric", "value"});
    t2.add_row({"reads issued", std::to_string(asked)});
    t2.add_row({"served by the fabric", std::to_string(fabric_hits)});
    t2.add_row({"served by the next level", std::to_string(next_level)});
    for (unsigned level = 2; level <= config.levels; ++level)
        t2.add_row({"hits in Le" + std::to_string(level),
                    std::to_string(fab.read_hits_in_level(level))});
    t2.add_row({"avg/min transport latency",
                text_table::num(safe_ratio(double(fab.transport_actual_cycles()),
                                           double(fab.transport_min_cycles()),
                                           1.0),
                                3)});
    t2.print();
    return 0;
}
