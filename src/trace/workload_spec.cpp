#include "src/trace/workload_spec.h"

#include "src/trace/scenarios.h"
#include "src/workloads/spec2006.h"

namespace lnuca::trace {

std::optional<wl::workload_profile>
parse_workload_spec(const std::string& spec)
{
    if (spec.rfind("trace:", 0) == 0) {
        const std::string path = spec.substr(6);
        if (path.empty())
            return std::nullopt;
        wl::workload_profile profile;
        profile.name = spec; // relabelled from the file header at open
        profile.trace_path = path;
        return profile;
    }
    if (spec.rfind("scenario:", 0) == 0) {
        const std::string name = spec.substr(9);
        if (!is_scenario(name))
            return std::nullopt;
        wl::workload_profile profile;
        profile.name = spec;
        profile.scenario = name;
        return profile;
    }
    return wl::find_spec2006(spec);
}

std::vector<wl::workload_profile>
parse_workload_list(const std::string& list, std::string* bad_spec)
{
    std::vector<wl::workload_profile> out;
    std::size_t begin = 0;
    while (begin <= list.size()) {
        std::size_t end = list.find(',', begin);
        if (end == std::string::npos)
            end = list.size();
        const std::string spec = list.substr(begin, end - begin);
        if (spec == "all") {
            const auto& suite = wl::spec2006_suite();
            out.insert(out.end(), suite.begin(), suite.end());
        } else if (!spec.empty()) {
            if (const auto profile = parse_workload_spec(spec)) {
                out.push_back(*profile);
            } else {
                if (bad_spec != nullptr)
                    *bad_spec = spec;
                return {};
            }
        }
        begin = end + 1;
    }
    if (out.empty() && bad_spec != nullptr)
        *bad_spec = list;
    return out;
}

} // namespace lnuca::trace
