/**
 * @file
 * CliReader and the strict CLI number parser.
 */

#include "sim/cli.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dolos
{

std::optional<std::uint64_t>
parseCliNumber(const std::string &text)
{
    // strtoull alone skips leading blanks, accepts a sign (wrapping
    // "-1" to 2^64-1) and saturates on overflow: demand a bare
    // unsigned literal that fills the whole token.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return v;
}

bool
CliReader::next()
{
    if (pos_ + 1 >= argc_)
        return false;
    arg_ = argv_[++pos_];
    if (arg_ == "--help" || arg_ == "-h") {
        usage_(0);
        std::exit(0);
    }
    return true;
}

std::string
CliReader::value()
{
    if (pos_ + 1 >= argc_)
        fail("missing value for " + arg_);
    return argv_[++pos_];
}

std::optional<std::string>
CliReader::optionalValue()
{
    if (pos_ + 1 >= argc_ || argv_[pos_ + 1][0] == '-')
        return std::nullopt;
    return argv_[++pos_];
}

std::uint64_t
CliReader::number()
{
    const std::string text = value();
    const auto v = parseCliNumber(text);
    if (!v)
        fail("bad numeric value '" + text + "' for " + arg_);
    return *v;
}

unsigned
CliReader::jobs()
{
    const std::uint64_t v = number();
    if (v == 0)
        fail(arg_ + " must be >= 1");
    if (v > std::numeric_limits<unsigned>::max())
        fail(arg_ + " is too large");
    return unsigned(v);
}

void
CliReader::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s\n", message.c_str());
    usage_(errorCode_);
    std::exit(errorCode_);
}

} // namespace dolos
