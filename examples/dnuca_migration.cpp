// D-NUCA migration study: shows generational promotion concentrating hot
// blocks in the rows closest to the controller.
//
//   ./examples/dnuca_migration [--hot 64] [--accesses 4000]
#include "src/lnuca.h"

#include <cstdio>
#include <map>

using namespace lnuca;

namespace {

struct recorder final : mem::mem_client {
    std::uint64_t done = 0;
    void respond(const mem::mem_response&) override { ++done; }
};

struct instant_memory final : sim::ticked, mem::mem_port {
    bool can_accept(const mem::mem_request&) const override { return true; }
    void accept(const mem::mem_request& r) override
    {
        if (r.kind == mem::access_kind::read && r.needs_response)
            pending.push(r.created_at + 228, r);
    }
    void tick(cycle_t now) override
    {
        while (auto r = pending.pop_ready(now)) {
            mem::mem_response resp;
            resp.id = r->id;
            resp.addr = r->addr;
            resp.ready_at = now;
            resp.served_by = mem::service_level::memory;
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
    if (!args.only_known("dnuca_migration", {"hot", "accesses"}))
        return 2;
    const std::uint64_t hot_blocks = args.get_u64("hot", 64);
    const std::uint64_t accesses = args.get_u64("accesses", 4000);

    dnuca::dnuca_config config;
    mem::txn_id_source ids;
    dnuca::dnuca_cache cache(config, ids);
    recorder client;
    instant_memory memory;
    cache.set_upstream(&client);
    cache.set_downstream(&memory);
    memory.client = &cache;

    sim::engine engine;
    engine.add(cache);
    engine.add(memory);

    // Pre-warm the whole array, hot blocks landing wherever the spread
    // mapping puts them (rows 1..4).
    for (std::uint64_t i = 0; i < cache.size_bytes() / 128; ++i)
        cache.prewarm(0x1000000 + i * 128);

    std::printf("Hammering %llu hot blocks with %llu reads...\n\n",
                (unsigned long long)hot_blocks, (unsigned long long)accesses);

    rng rng(1);
    for (std::uint64_t n = 0; n < accesses; ++n) {
        mem::mem_request read;
        read.id = ids.next();
        read.addr = 0x1000000 + rng.below(hot_blocks) * 128;
        read.kind = mem::access_kind::read;
        read.created_at = engine.now();
        if (cache.can_accept(read))
            cache.accept(read);
        engine.run(8);
    }
    engine.run(2000);

    text_table t("Row hit distribution (row 1 = closest to the controller)");
    t.set_header({"row", "read hits", "share"});
    std::uint64_t total = 0;
    for (unsigned row = 1; row <= config.rows; ++row)
        total += cache.hits_in_row(row);
    for (unsigned row = 1; row <= config.rows; ++row)
        t.add_row({std::to_string(row), std::to_string(cache.hits_in_row(row)),
                   text_table::pct(100.0 * safe_ratio(
                                               double(cache.hits_in_row(row)),
                                               double(total)))});
    t.print();

    std::printf("promotions: %llu, mesh flit-hops: %llu\n",
                (unsigned long long)cache.counters().get("promotions"),
                (unsigned long long)cache.counters().get("flit_hops"));
    std::printf("\nGenerational promotion should concentrate hits in rows 1-2 "
                "after the warm-up phase - the D-NUCA's way of narrowing the "
                "latency gap that the L-NUCA closes with 1-cycle tiles.\n");
    return 0;
}
