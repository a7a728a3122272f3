// --workload spec parsing shared by exp::run_app and the bench binaries:
//
//   trace:<file>      replay a captured binary trace (src/trace/format.h)
//   scenario:<name>   generate a shared-memory scenario lane set
//   <anything else>   a SPEC CPU2006 proxy name (wl::find_spec2006)
//
// Specs become ordinary workload_profile entries (trace_path / scenario
// fields set), so sweeps, jobs and sinks carry them unchanged and
// hier::system realises the right stream per lane.
#pragma once

#include "src/workloads/profile.h"

#include <optional>
#include <string>
#include <vector>

namespace lnuca::trace {

/// Parse one spec; nullopt for an unknown proxy/scenario or empty path.
std::optional<wl::workload_profile>
parse_workload_spec(const std::string& spec);

/// Parse a comma-separated spec list ("429.mcf,scenario:ping_pong"); the
/// entry "all" stands for the whole SPEC proxy suite. Returns the
/// profiles, or an empty vector with *bad_spec naming the first offending
/// entry.
std::vector<wl::workload_profile>
parse_workload_list(const std::string& list, std::string* bad_spec);

} // namespace lnuca::trace
