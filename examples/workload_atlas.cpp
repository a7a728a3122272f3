// Workload atlas: characterises every SPEC CPU2006 proxy - instruction
// mix, working set, and LRU hit rates at the hierarchy's capacity
// landmarks - the data the proxies were calibrated against.
//
// The per-workload LRU characterisations are independent, so they run
// across threads with exp::parallel_for (one index per proxy) and the
// table is assembled in suite order afterwards.
//
//   ./examples/workload_atlas [--samples 200000] [--threads N]
#include "src/lnuca.h"

#include <cstdio>
#include <list>
#include <unordered_map>

using namespace lnuca;

namespace {

struct locality {
    double l1 = 0;    // <= 32KB of blocks
    double ln3 = 0;   // <= L1 + Le2 + Le3 window
    double l2 = 0;    // <= L1 + 256KB window
    double loads = 0;
    double branches = 0;
};

locality characterise(const wl::workload_profile& profile, int samples)
{
    wl::synthetic_stream stream(profile, 7);
    std::list<addr_t> lru;
    std::unordered_map<addr_t, std::list<addr_t>::iterator> where;
    std::uint64_t h1 = 0, h3 = 0, h2 = 0, accesses = 0, loads = 0,
                  branches = 0;
    const std::size_t cap1 = 1024, cap3 = 4608, cap2 = 9216;
    for (int i = 0; i < samples; ++i) {
        const auto inst = stream.next();
        if (inst.op == cpu::op_class::branch)
            ++branches;
        if (inst.op == cpu::op_class::load)
            ++loads;
        if (inst.op != cpu::op_class::load && inst.op != cpu::op_class::store)
            continue;
        ++accesses;
        const addr_t block = inst.addr & ~addr_t(31);
        const auto it = where.find(block);
        if (it != where.end()) {
            std::size_t depth = 0;
            for (auto j = lru.begin(); j != it->second && depth <= cap2;
                 ++j, ++depth)
                ;
            if (depth < cap1)
                ++h1;
            if (depth < cap3)
                ++h3;
            if (depth < cap2)
                ++h2;
            lru.erase(it->second);
        }
        lru.push_front(block);
        where[block] = lru.begin();
        if (lru.size() > cap2 + 1) {
            where.erase(lru.back());
            lru.pop_back();
        }
    }
    locality out;
    out.l1 = 100.0 * double(h1) / double(accesses);
    out.ln3 = 100.0 * double(h3) / double(accesses);
    out.l2 = 100.0 * double(h2) / double(accesses);
    out.loads = 100.0 * double(loads) / samples;
    out.branches = 100.0 * double(branches) / samples;
    return out;
}

} // namespace

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    if (!args.only_known("workload_atlas", {"samples", "threads"}))
        return 2;
    const int samples = int(args.get_u64("samples", 200000));
    const unsigned threads = unsigned(args.get_u64("threads", 0));

    const auto& suite = wl::spec2006_suite();
    std::vector<locality> localities(suite.size());
    exp::parallel_for(suite.size(), threads, [&](std::size_t w) {
        localities[w] = characterise(suite[w], samples);
    });

    text_table t("SPEC CPU2006 proxy atlas (LRU hit % at capacity landmarks)");
    t.set_header({"benchmark", "kind", "loads%", "branch%", "<=L1", "<=LN3 win",
                  "<=L2 win", "footprint"});
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const auto& profile = suite[w];
        const locality& loc = localities[w];
        t.add_row({profile.name, profile.floating_point ? "FP" : "INT",
                   text_table::num(loc.loads, 1),
                   text_table::num(loc.branches, 1), text_table::num(loc.l1, 1),
                   text_table::num(loc.ln3, 1), text_table::num(loc.l2, 1),
                   format_size(profile.footprint_blocks * 32)});
    }
    t.print();

    std::printf("\nThe gap between the <=L1 and <=LN3-window columns is the "
                "reuse the L-NUCA captures; between <=LN3 and <=L2 is what "
                "only the 256KB L2 can hold (the paper's Table III mass).\n");
    return 0;
}
