// Tiny command-line option reader shared by bench/example binaries.
// Supports "--name value" and "--name=value"; unknown options are kept so
// callers can reject or ignore them explicitly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lnuca {

class cli_args {
public:
    cli_args(int argc, const char* const* argv);

    /// Value of --name, if present.
    std::optional<std::string> value(const std::string& name) const;

    /// Typed getters with defaults.
    std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
    double get_double(const std::string& name, double fallback) const;
    std::string get_string(const std::string& name, std::string fallback) const;
    bool has_flag(const std::string& name) const;

    /// The first option on the command line that is not in `known`.
    std::optional<std::string>
    unknown_option(const std::vector<std::string>& known) const;

    /// Standalone binaries' flag check: true when every option is in
    /// `known`, the binary's own flag list. Otherwise prints "<program>:
    /// unknown option --<name>" and the list to stderr and returns false;
    /// the binary then exits 2, as exp::run_app does for the bench CLI.
    bool only_known(const char* program,
                    const std::vector<std::string>& known) const;

private:
    std::vector<std::string> names_;
    std::vector<std::string> values_;
};

} // namespace lnuca
