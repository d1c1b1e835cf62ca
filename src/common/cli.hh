/**
 * @file
 * Minimal command-line option parsing shared by bench/example
 * binaries (--seed, --scale, --out, ...).
 */

#ifndef UNICO_COMMON_CLI_HH
#define UNICO_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace unico::common {

/**
 * Parses "--key value" and "--flag" style options.
 *
 * An option takes the next token as its value unless that token
 * starts with "--" or the option is one of the binaries' bare flags
 * (--resume, --surrogate, --no-surrogate, --no-cache, --help, ...),
 * which never take one. Unknown options are retained and can be
 * queried; every occurrence of a repeated option is kept, and the
 * single-value lookups return the last. Positional arguments are
 * collected in order.
 */
class CliArgs
{
  public:
    CliArgs(int argc, const char *const *argv);

    /** True if --name was present (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of --name or @p fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /** Integer value of --name, or @p fallback when it is absent.
     *  @throws std::invalid_argument naming the flag unless the whole
     *          value is a decimal integer in range (an empty value, a
     *          suffix as in "2x" or a fraction are refused). */
    std::int64_t getInt(const std::string &name, std::int64_t fallback) const;

    /** Floating-point value of --name, or @p fallback when it is
     *  absent.
     *  @throws std::invalid_argument naming the flag unless the whole
     *          value is a finite decimal number. */
    double getDouble(const std::string &name, double fallback) const;

    /** Every value given for --name, in command-line order ("" for a
     *  bare flag); empty when absent. */
    const std::vector<std::string> &values(const std::string &name) const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::vector<std::string>> options_;
    std::vector<std::string> positional_;
};

} // namespace unico::common

#endif // UNICO_COMMON_CLI_HH
