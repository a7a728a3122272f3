// Merge sharded / resumed sweep outputs into one canonical result set.
//
//   merge_tool --manifest M.json --output merged.jsonl shard0.jsonl shard1.jsonl ...
//   merge_tool --print-schema
//
// --print-schema writes the results-store columns, one "column<TAB>SQL
// type<TAB>JSON path" line each, from the run_result field table;
// tools/results_db.py ingest builds its `runs` table from that output.
//
// Every input goes through exp::scan_rows, the row scan --resume runs: a
// row's provenance is validated against the manifest (flat coordinates,
// derived seed, run length, manifest hash, config/workload names, sampled
// flag), and an ok row beats a failed one for the same flat. The merged
// output holds exactly one line per completed flat, in flat order,
// byte-identical (modulo the host-timing trio) to a single clean unsharded
// run. The coverage report always prints to stderr.
//
// Exit codes, mirroring run_app's convention:
//   0  merge complete: every flat of the manifest has a completed row
//   1  merge clean but incomplete: missing and/or failed flats (the report
//      names them; re-run those shards with --resume and merge again)
//   2  hard error: unreadable file, corrupt mid-file row, a row from a
//      different manifest, or conflicting duplicate rows
//
// Logic lives in src/exp/merge.{h,cpp} so tests drive it in-process; this
// file is only argv handling and file I/O. (Inputs are positional, which
// lnuca::cli_args drops by design — argv is walked by hand here.)
#include "src/exp/manifest.h"
#include "src/exp/merge.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace lnuca;

namespace {

int usage()
{
    std::fprintf(stderr,
                 "usage: merge_tool --manifest FILE --output FILE "
                 "INPUT.jsonl [INPUT.jsonl ...]\n"
                 "  --manifest FILE  the lnuca_sweep/1 manifest the inputs "
                 "were run from\n"
                 "  --output FILE    merged canonical JSONL (\"-\" = "
                 "stdout)\n"
                 "  --quiet          suppress the coverage report when the "
                 "merge is complete\n"
                 "usage: merge_tool --print-schema\n"
                 "  print the results-store columns (column, SQL type, "
                 "JSON path)\n");
    return 2;
}

bool read_file(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>{});
    return true;
}

// "--name value" / "--name=value" for the two named options; everything
// else that does not start with "--" is an input path.
bool take_option(int argc, const char* const* argv, int& i,
                 const char* name, std::string& out)
{
    const std::string arg = argv[i];
    const std::string prefix = std::string("--") + name;
    if (arg == prefix) {
        if (i + 1 >= argc)
            return false;
        out = argv[++i];
        return true;
    }
    if (arg.rfind(prefix + "=", 0) == 0) {
        out = arg.substr(prefix.size() + 1);
        return true;
    }
    return false;
}

} // namespace

int main(int argc, char** argv)
{
    std::string manifest_path;
    std::string output_path;
    bool quiet = false;
    std::vector<std::string> input_paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (take_option(argc, argv, i, "manifest", manifest_path) ||
            take_option(argc, argv, i, "output", output_path))
            continue;
        if (arg == "--quiet") {
            quiet = true;
            continue;
        }
        if (arg == "--print-schema") {
            std::cout << exp::store_schema();
            return std::cout ? 0 : 2;
        }
        if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage();
        }
        input_paths.push_back(arg);
    }
    if (manifest_path.empty() || output_path.empty() || input_paths.empty())
        return usage();

    std::string error;
    const auto m = exp::load_manifest(manifest_path, &error);
    if (!m) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }

    std::vector<exp::merge_input> inputs;
    for (const std::string& path : input_paths) {
        std::string content;
        if (!read_file(path, content)) {
            std::fprintf(stderr, "cannot read input '%s'\n", path.c_str());
            return 2;
        }
        inputs.emplace_back(path, std::move(content));
    }

    std::string merged;
    exp::merge_report report;
    if (!exp::merge_results(*m, inputs, merged, report, &error)) {
        std::fprintf(stderr, "merge_tool: %s\n", error.c_str());
        return 2;
    }

    if (output_path == "-") {
        std::cout << merged;
        if (!std::cout) {
            std::fprintf(stderr, "write to stdout failed\n");
            return 2;
        }
    } else {
        std::ofstream out(output_path,
                          std::ios::binary | std::ios::trunc);
        out << merged;
        out.flush();
        if (!out) {
            std::fprintf(stderr, "cannot write output '%s'\n",
                         output_path.c_str());
            return 2;
        }
    }

    if (!quiet || !report.complete())
        std::fprintf(stderr, "%s\n", exp::describe_merge(report).c_str());
    return report.complete() ? 0 : 1;
}
