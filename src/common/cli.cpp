#include "src/common/cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace lnuca {

cli_args::cli_args(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            continue;
        arg.erase(0, 2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            names_.push_back(arg.substr(0, eq));
            values_.push_back(arg.substr(eq + 1));
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            names_.push_back(arg);
            values_.push_back(argv[++i]);
        } else {
            names_.push_back(arg);
            values_.push_back("");
        }
    }
}

std::optional<std::string> cli_args::value(const std::string& name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return values_[i];
    return std::nullopt;
}

std::uint64_t cli_args::get_u64(const std::string& name, std::uint64_t fallback) const
{
    const auto v = value(name);
    return v && !v->empty() ? std::strtoull(v->c_str(), nullptr, 0) : fallback;
}

double cli_args::get_double(const std::string& name, double fallback) const
{
    const auto v = value(name);
    return v && !v->empty() ? std::strtod(v->c_str(), nullptr) : fallback;
}

std::string cli_args::get_string(const std::string& name, std::string fallback) const
{
    const auto v = value(name);
    return v && !v->empty() ? *v : std::move(fallback);
}

bool cli_args::has_flag(const std::string& name) const
{
    return value(name).has_value();
}

std::optional<std::string>
cli_args::unknown_option(const std::vector<std::string>& known) const
{
    for (const std::string& name : names_)
        if (std::find(known.begin(), known.end(), name) == known.end())
            return name;
    return std::nullopt;
}

bool cli_args::only_known(const char* program,
                          const std::vector<std::string>& known) const
{
    const auto name = unknown_option(known);
    if (!name)
        return true;
    std::fprintf(stderr, "%s: unknown option --%s (flags:", program,
                 name->c_str());
    for (const std::string& k : known)
        std::fprintf(stderr, " --%s", k.c_str());
    std::fprintf(stderr, "%s)\n", known.empty() ? " none" : "");
    return false;
}

} // namespace lnuca
