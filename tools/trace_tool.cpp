// Trace workbench: inspect/validate/stats over binary trace files
// (src/trace/format.h), scenario generation to disk, and capture/replay
// runs that print a deterministic digest line - the CI smoke row captures
// a run, replays the trace, and diffs the two digests byte-for-byte.
//
//   trace_tool info <trace>
//   trace_tool validate <trace>
//   trace_tool stats <trace>
//   trace_tool gen <scenario> <out.trace> [--cores N --seed S --rounds R
//                                          --gap G --phase-len P]
//   trace_tool capture <workload> <out.trace> [run flags]
//   trace_tool replay <trace> [run flags]
//
// Run flags (capture/replay): --preset NAME (any hier::presets::by_name
// name: l2, ln2..ln4, dnuca, ln2+dn..ln4+dn), --cores N, --instructions N,
// --warmup N, --seed S, --sampling SPEC, --engine dense|skip|paranoid.
// Positional operands must precede the -- flags.
#include "src/lnuca.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <unordered_map>
#include <vector>

using namespace lnuca;

namespace {

int usage()
{
    std::fprintf(
        stderr,
        "usage: trace_tool <command> [operands] [--flags]\n"
        "  info <trace>              header + per-lane summary\n"
        "  validate <trace>          full open-time validation; exit 0 iff ok\n"
        "  stats <trace>             per-lane op mix and sharing profile\n"
        "  gen <scenario> <out>      write a scenario lane set to a trace "
        "file\n"
        "                            (--cores --seed --rounds --gap "
        "--phase-len)\n"
        "  capture <workload> <out>  run + serialise the consumed stream(s)\n"
        "  replay <trace>            run a captured/generated trace\n"
        "run flags: --preset l2|ln2..ln4|dnuca|ln2+dn..ln4+dn  --cores N\n"
        "           --instructions N  --warmup N  --seed S  --sampling SPEC\n"
        "           --engine dense|skip|paranoid\n"
        "scenarios:");
    for (const std::string& name : trace::scenario_names())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/// Tokens after the subcommand and before the first "--flag". cli_args
/// skips them, so flags and operands parse from the same argv.
std::vector<std::string> operands(int argc, char** argv)
{
    std::vector<std::string> out;
    for (int i = 2; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) == 0)
            break;
        out.emplace_back(argv[i]);
    }
    return out;
}

hier::system_config resolve_preset(const cli_args& args, bool& ok)
{
    const std::string name = args.get_string("preset", "l2");
    const auto preset = hier::presets::by_name(name);
    if (!preset) {
        std::fprintf(stderr,
                     "unknown --preset '%s' (l2|ln2..ln4|dnuca|"
                     "ln2+dn..ln4+dn)\n",
                     name.c_str());
        ok = false;
        return {};
    }
    hier::system_config config = *preset;
    const unsigned cores = unsigned(args.get_u64("cores", 1));
    if (cores > 1)
        config = hier::presets::cmp(config, cores);
    const std::string engine = args.get_string("engine", "skip");
    if (const auto mode = sim::parse_schedule_mode(engine)) {
        config.engine_mode = *mode;
    } else {
        std::fprintf(stderr, "unknown --engine '%s' (dense|skip|paranoid)\n",
                     engine.c_str());
        ok = false;
    }
    const std::string sampling = args.get_string("sampling", "off");
    if (const auto parsed = hier::parse_sampling_spec(sampling)) {
        config.sampling = *parsed;
    } else {
        std::fprintf(stderr, "unknown --sampling '%s'\n", sampling.c_str());
        ok = false;
    }
    return config;
}

/// Every deterministic field of a run on one line, as name=value in the
/// flat-column form (exp::flat_columns), without the run labels (the
/// capture names the live workload, the replay names the trace file - the
/// digest must still compare equal) and without the host-timing fields.
void print_digest(const hier::run_result& r)
{
    std::string line = "digest";
    for (const exp::flat_column& c : exp::flat_columns(exp::job{}, r))
        if (c.field.role == hier::field_role::measured)
            line += ' ' + c.name + '=' + c.text;
    std::printf("%s\n", line.c_str());
}

int run_and_digest(const wl::workload_profile& profile, const cli_args& args,
                   const std::string& capture_path)
{
    bool ok = true;
    hier::system_config config = resolve_preset(args, ok);
    if (!ok)
        return 1;
    config.capture_path = capture_path;
    const std::uint64_t instructions =
        args.get_u64("instructions", hier::default_instructions);
    const std::uint64_t warmup = args.get_u64("warmup", hier::default_warmup);
    const std::uint64_t seed = args.get_u64("seed", 1);

    hier::run_result r;
    {
        // Scoped: the capture file is written at system destruction.
        hier::system sys(config, std::vector<wl::workload_profile>{profile},
                         seed);
        r = sys.run(instructions, warmup);
    }
    std::fprintf(stderr, "run: workload=%s config=%s cores=%u\n",
                 r.workload_name.c_str(), r.config_name.c_str(), r.cores);
    print_digest(r);
    return 0;
}

int cmd_info(const std::string& path)
{
    const auto data = trace::trace_data::open(path);
    std::printf("%s: '%s' (%s), %u lane(s), %llu records\n", path.c_str(),
                data->name().c_str(),
                data->floating_point() ? "floating-point" : "integer",
                data->lane_count(),
                (unsigned long long)data->total_records());
    for (unsigned i = 0; i < data->lane_count(); ++i) {
        const auto& lane = data->lane(i);
        std::printf("  lane %u: %llu records, %llu warm entries\n", i,
                    (unsigned long long)lane.record_count,
                    (unsigned long long)lane.warm_count);
    }
    return 0;
}

int cmd_stats(const std::string& path)
{
    const auto data = trace::trace_data::open(path);
    constexpr addr_t k_line = 64;
    // line -> bitmask of lanes touching it (sharing profile).
    std::unordered_map<addr_t, std::uint32_t> lines;
    std::printf("%s: '%s', %u lane(s)\n", path.c_str(), data->name().c_str(),
                data->lane_count());
    for (unsigned i = 0; i < data->lane_count(); ++i) {
        const auto& lane = data->lane(i);
        std::uint64_t loads = 0, stores = 0, branches = 0, other = 0;
        for (std::uint64_t r = 0; r < lane.record_count; ++r) {
            const trace::trace_record& rec = lane.records[r];
            const auto op = cpu::op_class(rec.op);
            if (op == cpu::op_class::load)
                ++loads;
            else if (op == cpu::op_class::store)
                ++stores;
            else if (op == cpu::op_class::branch)
                ++branches;
            else
                ++other;
            if (op == cpu::op_class::load || op == cpu::op_class::store)
                lines[rec.addr / k_line] |= 1u << (i % 32);
        }
        std::printf("  lane %u: %llu records  load %.1f%%  store %.1f%%  "
                    "branch %.1f%%  alu %.1f%%\n",
                    i, (unsigned long long)lane.record_count,
                    100.0 * double(loads) / double(lane.record_count),
                    100.0 * double(stores) / double(lane.record_count),
                    100.0 * double(branches) / double(lane.record_count),
                    100.0 * double(other) / double(lane.record_count));
    }
    std::uint64_t shared = 0;
    for (const auto& [line, mask] : lines)
        if ((mask & (mask - 1)) != 0)
            ++shared;
    std::printf("  footprint: %zu 64B lines, %llu shared between lanes\n",
                lines.size(), (unsigned long long)shared);
    return 0;
}

int cmd_gen(const std::string& name, const std::string& out,
            const cli_args& args)
{
    trace::scenario_params params;
    params.cores = unsigned(args.get_u64("cores", params.cores));
    params.seed = args.get_u64("seed", params.seed);
    params.rounds = args.get_u64("rounds", params.rounds);
    params.gap = unsigned(args.get_u64("gap", params.gap));
    params.phase_len = unsigned(args.get_u64("phase-len", params.phase_len));
    const auto data = trace::make_scenario(name, params);

    trace::trace_writer writer(out, data->name(), data->floating_point(),
                               data->lane_count());
    for (unsigned i = 0; i < data->lane_count(); ++i) {
        const auto& lane = data->lane(i);
        for (std::uint64_t r = 0; r < lane.record_count; ++r)
            writer.append_raw(i, lane.records[r]);
        if (lane.warm_count != 0)
            writer.set_warm_table(
                i, std::vector<addr_t>(lane.warm, lane.warm + lane.warm_count));
    }
    if (!writer.write())
        return 1;
    std::printf("wrote %s: %u lane(s), %llu records\n", out.c_str(),
                data->lane_count(), (unsigned long long)data->total_records());
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    const std::vector<std::string> ops = operands(argc, argv);
    const cli_args args(argc, argv);
    if (!args.only_known("trace_tool",
                         {"preset", "cores", "instructions", "warmup", "seed",
                          "sampling", "engine", "rounds", "gap", "phase-len"}))
        return 2;

    try {
        if (command == "info" && ops.size() == 1)
            return cmd_info(ops[0]);
        if (command == "validate" && ops.size() == 1) {
            const auto data = trace::trace_data::open(ops[0]);
            std::printf("ok: %s: %u lane(s), %llu records\n", ops[0].c_str(),
                        data->lane_count(),
                        (unsigned long long)data->total_records());
            return 0;
        }
        if (command == "stats" && ops.size() == 1)
            return cmd_stats(ops[0]);
        if (command == "gen" && ops.size() == 2)
            return cmd_gen(ops[0], ops[1], args);
        if (command == "capture" && ops.size() == 2) {
            const auto profile = trace::parse_workload_spec(ops[0]);
            if (!profile) {
                std::fprintf(stderr, "unknown workload spec '%s'\n",
                             ops[0].c_str());
                return 1;
            }
            return run_and_digest(*profile, args, ops[1]);
        }
        if (command == "replay" && ops.size() == 1) {
            const auto profile = trace::parse_workload_spec("trace:" + ops[0]);
            if (!profile) {
                std::fprintf(stderr, "bad trace path '%s'\n", ops[0].c_str());
                return 1;
            }
            return run_and_digest(*profile, args, "");
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "trace_tool %s: %s\n", command.c_str(),
                     error.what());
        return 1;
    }
    return usage();
}
