#include "src/exp/merge.h"

#include <algorithm>
#include <map>

namespace lnuca::exp {

namespace {

std::string flat_list(const std::vector<std::size_t>& flats)
{
    // Compact "0-3,7,9-11" ranges; a 10k-row sweep with one shard missing
    // should not print 5k numbers.
    std::string out;
    std::size_t i = 0;
    while (i < flats.size()) {
        std::size_t run_end = i;
        while (run_end + 1 < flats.size() &&
               flats[run_end + 1] == flats[run_end] + 1)
            ++run_end;
        if (!out.empty())
            out += ',';
        out += std::to_string(flats[i]);
        if (run_end > i)
            out += '-' + std::to_string(flats[run_end]);
        i = run_end + 1;
    }
    return out;
}

/// The first field on which row `d` disagrees with the job at its flat
/// index, or nullptr when the row belongs to that job.
const char* provenance_mismatch(const job& j, const decoded_run& d)
{
    const hier::run_result& r = d.result;
    if (!(j.key == d.key))
        return "config_index/workload_index/replicate";
    if (j.seed != d.seed)
        return "seed";
    if (j.instructions != d.instructions_requested)
        return "instructions_requested";
    if (j.warmup != d.warmup)
        return "warmup";
    if (j.manifest_hash != d.manifest_hash)
        return "manifest";
    if (r.config_name != j.config.name)
        return "config";
    // A trace replay's row carries the name recorded in the trace file,
    // which only opening the file would tell.
    if (j.workload.trace_path.empty() && r.workload_name != j.workload.name)
        return "workload";
    // A failed row holds no measurement, sampled or exact.
    if (r.status == hier::run_status::ok &&
        r.sampled != (j.config.sampling.enabled && j.instructions > 0))
        return "sampled";
    return nullptr;
}

} // namespace

bool scan_rows(const std::vector<job>& jobs, const std::string& content,
               row_scan& scan, std::size_t& kept_bytes, std::string& error)
{
    kept_bytes = content.size();
    std::size_t line_start = 0;
    std::size_t line_no = 0;
    const auto fail = [&](const std::string& why) {
        error = "line " + std::to_string(line_no) + ": " + why;
        return false;
    };
    while (line_start < content.size()) {
        std::size_t newline = content.find('\n', line_start);
        if (newline == std::string::npos)
            newline = content.size();
        const std::string line =
            content.substr(line_start, newline - line_start);
        const std::size_t next = std::min(newline + 1, content.size());
        ++line_no;

        if (line.empty()) {
            line_start = next;
            continue;
        }
        const auto decoded = decode_json_line(line);
        if (!decoded) {
            // Only a *trailing* undecodable line is a legitimate torn tail;
            // mid-file corruption means rows are gone for good.
            if (next < content.size())
                return fail("malformed row is not the trailing line; the "
                            "file is corrupt, not merely torn");
            kept_bytes = line_start;
            return true;
        }

        const std::size_t flat = decoded->key.flat;
        if (flat >= jobs.size())
            return fail("flat index " + std::to_string(flat) +
                        " is outside the sweep's " +
                        std::to_string(jobs.size()) + " jobs");
        const job& j = jobs[flat];
        if (const char* field = provenance_mismatch(j, *decoded))
            return fail("row for flat " + std::to_string(flat) +
                        " does not belong to this sweep: its \"" + field +
                        "\" differs");

        ++scan.rows_seen;
        row_scan::row& slot = scan.rows[flat];
        if (decoded->result.status != hier::run_status::ok) {
            // failed / timed_out (or a stray skipped_resumed, which a sink
            // never writes): kept only while no ok row has arrived.
            if (!slot.ok())
                slot.result = decoded->result;
        } else {
            std::string canonical =
                encode_deterministic_line(j, decoded->result);
            if (!slot.ok()) {
                slot.result = decoded->result;
                slot.canonical = std::move(canonical);
            } else if (slot.canonical == canonical) {
                ++scan.duplicates;
            } else {
                return fail("conflicting completed rows for flat " +
                            std::to_string(flat) +
                            ": two ok runs of the same job differ on "
                            "deterministic fields (seed reuse or "
                            "nondeterminism)");
            }
        }
        line_start = next;
    }
    return true;
}

bool merge_results(const manifest& m, const std::vector<merge_input>& inputs,
                   std::string& out_jsonl, merge_report& report,
                   std::string* error)
{
    out_jsonl.clear();
    report = merge_report{};
    report.expected = m.total_jobs();

    const std::vector<job> jobs = m.to_sweep().build();
    row_scan scan;
    for (const merge_input& input : inputs) {
        std::size_t kept = 0;
        std::string why;
        if (!scan_rows(jobs, input.second, scan, kept, why)) {
            if (error != nullptr)
                *error = input.first + " " + why;
            return false;
        }
        if (kept < input.second.size())
            ++report.torn_tails;
    }
    report.rows_seen = scan.rows_seen;
    report.duplicates = scan.duplicates;

    // Coverage + canonical output, in flat order.
    for (std::size_t flat = 0; flat < jobs.size(); ++flat) {
        const auto it = scan.rows.find(flat);
        if (it == scan.rows.end())
            report.missing.push_back(flat);
        else if (!it->second.ok())
            report.failed.push_back(flat);
        else
            out_jsonl += encode_json_line(jobs[flat], it->second.result) +
                         '\n';
    }
    return true;
}

std::string describe_merge(const merge_report& report)
{
    const std::size_t completed =
        report.expected - report.missing.size() - report.failed.size();
    std::string out = "merge: " + std::to_string(completed) + "/" +
                      std::to_string(report.expected) + " flats completed, " +
                      std::to_string(report.rows_seen) + " rows read, " +
                      std::to_string(report.duplicates) + " duplicates, " +
                      std::to_string(report.torn_tails) + " torn tails";
    if (!report.failed.empty())
        out += "\n  failed flats:  " + flat_list(report.failed);
    if (!report.missing.empty())
        out += "\n  missing flats: " + flat_list(report.missing);
    return out;
}

} // namespace lnuca::exp
