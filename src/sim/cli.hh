/**
 * @file
 * The one command-line reader of dolos-sim, dolos_torture,
 * dolos_report and the experiment drivers. A tool keeps only its flag
 * table and usage text; the reader owns the shared rules: a flag's
 * value must be present, numbers are strict, a parsed value (mode,
 * fault kind, --opt-knobs, ...) is rejected rather than defaulted,
 * --jobs is at least 1, and an unknown option is an error.
 * Every error prints one diagnostic line on stderr and ends the
 * process with the tool's usage exit code; --help prints the usage.
 */

#ifndef DOLOS_SIM_CLI_HH
#define DOLOS_SIM_CLI_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>

namespace dolos
{

/**
 * Strict CLI number: the whole token must be an unsigned base-0
 * literal (decimal, 0x hex, 0 octal) that fits in 64 bits. Blanks,
 * signs, trailing characters and overflow yield nullopt.
 */
std::optional<std::uint64_t> parseCliNumber(const std::string &text);

/** Walks argv once, flag by flag. */
class CliReader
{
  public:
    /**
     * @param error_code Exit code of every usage error.
     * @param usage Prints the usage text and exits with its argument:
     *              called with @p error_code after a diagnostic, and
     *              with 0 for --help / -h.
     */
    CliReader(int argc, char **argv, int error_code, void (*usage)(int))
        : argc_(argc), argv_(argv), errorCode_(error_code), usage_(usage)
    {
    }

    /** Step to the next argument; false once all are read. */
    bool next();

    /** The current argument. */
    const std::string &arg() const { return arg_; }

    /** True if the current argument is @p flag. */
    bool is(const char *flag) const { return arg_ == flag; }

    /** The current flag's value; a missing value is an error. */
    std::string value();

    /** The next argument as a value, unless absent or a flag. */
    std::optional<std::string> optionalValue();

    /** The current flag's value as a strict number. */
    std::uint64_t number();

    /** A --jobs value: a strict number of at least 1. */
    unsigned jobs();

    /**
     * The current flag's value through @p parse, which returns an
     * optional; nullopt is rejected as "<what> '<value>'".
     */
    template <typename Parse>
    auto
    parsed(Parse &&parse, const char *what)
    {
        const std::string text = value();
        auto v = parse(text);
        if (!v)
            fail(std::string(what) + " '" + text + "'");
        return *std::move(v);
    }

    /** The current flag's value looked up in a {name, value} table. */
    template <typename T>
    T
    choice(std::initializer_list<std::pair<const char *, T>> table,
           const char *what)
    {
        return parsed(
            [&](const std::string &text) -> std::optional<T> {
                for (const auto &[name, v] : table)
                    if (text == name)
                        return v;
                return std::nullopt;
            },
            what);
    }

    /** Reject the current argument as an unknown option. */
    [[noreturn]] void unknown() { fail("unknown option '" + arg_ + "'"); }

    /** Print @p message and exit with the usage error code. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    int argc_;
    char **argv_;
    int pos_ = 0;
    int errorCode_;
    void (*usage_)(int);
    std::string arg_;
};

} // namespace dolos

#endif // DOLOS_SIM_CLI_HH
