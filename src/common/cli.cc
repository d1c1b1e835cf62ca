#include "common/cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace unico::common {

namespace {

/** The options of this project's binaries that take no value: the
 *  token after one is never bound to it. */
constexpr std::string_view kBareFlags[] = {
    "full", "help", "no-cache", "no-net", "no-surrogate", "resume",
    "surrogate", "write-reference"};

bool
isBareFlag(std::string_view name)
{
    return std::find(std::begin(kBareFlags), std::end(kBareFlags), name) !=
           std::end(kBareFlags);
}

/** The whole of @p text as a decimal T (a finite one for floating
 *  point); otherwise std::invalid_argument naming --@p name. */
template <class T>
T
parseWhole(const std::string &name, const std::string &text)
{
    T v{};
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    bool ok = ec == std::errc() && end == last;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v);
    if (!ok)
        throw std::invalid_argument(
            "--" + name + ": expected " +
            (std::is_floating_point_v<T> ? "a finite number"
                                         : "an integer") +
            ", got '" + text + "'");
    return v;
}

} // namespace

CliArgs::CliArgs(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.size() > 2 && arg.rfind("--", 0) == 0) {
            std::string name = arg.substr(2);
            std::string value;
            const auto eq = name.find('=');
            if (eq != std::string::npos) {
                value = name.substr(eq + 1);
                name = name.substr(0, eq);
            } else if (i + 1 < argc && !isBareFlag(name) &&
                       std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            }
            options_[name].push_back(value);
        } else {
            positional_.push_back(arg);
        }
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return options_.count(name) > 0;
}

const std::vector<std::string> &
CliArgs::values(const std::string &name) const
{
    static const std::vector<std::string> kNone;
    const auto it = options_.find(name);
    return it == options_.end() ? kNone : it->second;
}

std::string
CliArgs::getString(const std::string &name, const std::string &fallback) const
{
    const auto &v = values(name);
    return v.empty() ? fallback : v.back();
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t fallback) const
{
    const auto &v = values(name);
    return v.empty() ? fallback : parseWhole<std::int64_t>(name, v.back());
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    const auto &v = values(name);
    return v.empty() ? fallback : parseWhole<double>(name, v.back());
}

} // namespace unico::common
