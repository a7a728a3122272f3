// CMP scaling: cores x shared-fabric backends (conventional L2, L-NUCA,
// D-NUCA), reporting per-core IPC and multiprogrammed weighted speedup
// against each backend's single-core baseline.
//
// The sweep runs every (backend, cores) preset over a 4-proxy mix set
// through exp::run_app. Each backend's cores=1 preset is the weighted-
// speedup partner of its CMP presets; run_app fills
// run_result::weighted_speedup in-stream, so the JSON-lines/CSV
// trajectories carry WS while keeping the runner's streaming crash safety
// (--resume works on sharded fig_cmp sweeps).
#include "src/lnuca.h"

#include <iostream>

using namespace lnuca;

namespace {

constexpr unsigned k_core_counts[] = {1, 2, 4};
constexpr std::size_t k_per_backend = std::size(k_core_counts);

std::vector<hier::system_config> backends()
{
    return {hier::presets::l2_256kb(), hier::presets::lnuca_l3(2),
            hier::presets::lnuca_l3(3), hier::presets::lnuca_l3(4),
            hier::presets::dnuca_4x8()};
}

std::vector<wl::workload_profile> cmp_workloads()
{
    // Two integer and two floating-point proxies spanning cache-friendly
    // to memory-bound behaviour.
    std::vector<wl::workload_profile> out;
    for (const char* name : {"456.hmmer", "429.mcf", "433.milc", "470.lbm"})
        if (const auto profile = wl::find_spec2006(name))
            out.push_back(*profile);
    return out;
}

void render(const exp::report& rep, const exp::app_options&)
{
    exp::table_sink log(std::cout);
    for (std::size_t i = 0; i < rep.jobs.size(); ++i)
        log.consume(rep.jobs[i], rep.results[i]);
    log.finish();

    // Summary: per backend x core count, harmonic-mean IPC over the mix
    // set, mean per-core IPC, and mean weighted speedup.
    const std::vector<hier::system_config> bases = backends();
    text_table t("CMP scaling: cores x shared-fabric backend");
    t.set_header({"backend", "cores", "HM IPC", "mean IPC/core",
                  "weighted speedup", "peer-L1 loads"});
    for (std::size_t b = 0; b < bases.size(); ++b) {
        for (std::size_t k = 0; k < k_per_backend; ++k) {
            const std::vector<hier::run_result> row =
                rep.row(b * k_per_backend + k);
            std::vector<double> ipcs;
            double per_core_sum = 0.0, ws_sum = 0.0;
            std::uint64_t peer_loads = 0;
            for (const hier::run_result& r : row) {
                ipcs.push_back(r.ipc);
                double pc = r.ipc;
                if (!r.per_core_ipc.empty()) {
                    pc = 0.0;
                    for (const double v : r.per_core_ipc)
                        pc += v;
                    pc /= double(r.per_core_ipc.size());
                }
                per_core_sum += pc;
                ws_sum += r.weighted_speedup;
                peer_loads += r.loads_peer;
            }
            const unsigned cores = k_core_counts[k];
            const double n = double(row.size());
            const std::string ws =
                cores == 1 ? "1.00 (def)" : text_table::num(ws_sum / n, 2);
            t.add_row({bases[b].name, std::to_string(cores),
                       text_table::num(harmonic_mean(ipcs), 3),
                       text_table::num(per_core_sum / n, 3), ws,
                       std::to_string(peer_loads)});
        }
    }
    t.print();

    // Per-workload weighted speedup at the largest core count.
    text_table d("Weighted speedup per workload (4 cores)");
    std::vector<std::string> header{"backend"};
    for (const hier::run_result& r : rep.row(0))
        header.push_back(r.workload_name);
    d.set_header(std::move(header));
    for (std::size_t b = 0; b < bases.size(); ++b) {
        std::vector<std::string> row{bases[b].name};
        for (const hier::run_result& r :
             rep.row(b * k_per_backend + k_per_backend - 1))
            row.push_back(text_table::num(r.weighted_speedup, 2));
        d.add_row(std::move(row));
    }
    d.print();
}

} // namespace

int main(int argc, char** argv)
{
    // Backend-major grid; every preset's partner is its backend's first
    // (cores=1) entry.
    std::vector<hier::system_config> configs;
    exp::baseline_list partners;
    for (const hier::system_config& base : backends()) {
        const std::size_t single = configs.size();
        for (const unsigned cores : k_core_counts) {
            configs.push_back(cores == 1 ? base
                                         : hier::presets::cmp(base, cores));
            partners.push_back(single);
        }
    }
    return exp::run_app(argc, argv, std::move(configs), cmp_workloads(),
                        render, std::move(partners));
}
