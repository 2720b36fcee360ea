/**
 * @file
 * CliReader tests: the shared rules every tool gets from the one
 * command-line reader — strict numbers, missing values,
 * parse-or-reject values, --jobs >= 1, unknown options — each ending
 * the process with the caller's exit code, and --help exiting 0.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sim/cli.hh"

namespace
{

using namespace dolos;

/** argv storage for one simulated command line. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        strings.insert(strings.begin(), "tool");
        for (auto &s : strings)
            ptrs.push_back(s.data());
    }

    int argc() const { return int(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
};

[[noreturn]] void
usage(int code)
{
    std::printf("usage text\n");
    std::exit(code);
}

std::optional<int>
parseColor(const std::string &name)
{
    if (name == "red")
        return 1;
    return std::nullopt;
}

/** Read one flag's value with @p read; the reader exits on error. */
template <typename Read>
void
readOne(std::vector<std::string> args, int code, Read read)
{
    Argv a(std::move(args));
    CliReader r(a.argc(), a.argv(), code, usage);
    r.next();
    read(r);
}

TEST(CliNumberConfig, ParseAcceptsOnlyAWholeUnsignedLiteral)
{
    EXPECT_EQ(parseCliNumber("0"), 0u);
    EXPECT_EQ(parseCliNumber("42"), 42u);
    EXPECT_EQ(parseCliNumber("0x10"), 16u);
    EXPECT_EQ(parseCliNumber("18446744073709551615"),
              18446744073709551615ull);
    for (const char *bad : {"", "abc", "2x", "5 ", " 5", "-1", "+1",
                            "0x", "18446744073709551616"})
        EXPECT_EQ(parseCliNumber(bad), std::nullopt) << "'" << bad << "'";
}

TEST(CliReader, ReadsFlagsValuesAndOptionalValues)
{
    Argv a({"--txns", "0x20", "--color", "red", "--json", "--jobs", "3",
            "--json", "out.json", "pos"});
    CliReader r(a.argc(), a.argv(), 2, usage);
    ASSERT_TRUE(r.next());
    EXPECT_TRUE(r.is("--txns"));
    EXPECT_EQ(r.number(), 32u);
    ASSERT_TRUE(r.next());
    EXPECT_EQ(r.parsed(parseColor, "unknown color"), 1);
    ASSERT_TRUE(r.next());
    EXPECT_EQ(r.optionalValue(), std::nullopt); // next is a flag
    ASSERT_TRUE(r.next());
    EXPECT_EQ(r.jobs(), 3u);
    ASSERT_TRUE(r.next());
    EXPECT_EQ(r.optionalValue(), "out.json");
    ASSERT_TRUE(r.next());
    EXPECT_EQ(r.arg(), "pos");
    EXPECT_FALSE(r.next());
}

TEST(CliReaderDeathTest, ErrorsExitWithTheCallersCode)
{
    EXPECT_EXIT(readOne({"--txns"}, 2, [](CliReader &r) { r.number(); }),
                ::testing::ExitedWithCode(2), "missing value for --txns");
    EXPECT_EXIT(readOne({"--txns", "10x"}, 1,
                        [](CliReader &r) { r.number(); }),
                ::testing::ExitedWithCode(1),
                "bad numeric value '10x' for --txns");
    EXPECT_EXIT(readOne({"--color", "blue"}, 2,
                        [](CliReader &r) {
                            r.parsed(parseColor, "unknown color");
                        }),
                ::testing::ExitedWithCode(2), "unknown color 'blue'");
    EXPECT_EXIT(readOne({"--jobs", "0"}, 2, [](CliReader &r) { r.jobs(); }),
                ::testing::ExitedWithCode(2), "--jobs must be >= 1");
    EXPECT_EXIT(readOne({"--bogus"}, 1, [](CliReader &r) { r.unknown(); }),
                ::testing::ExitedWithCode(1), "unknown option '--bogus'");
    EXPECT_EXIT(readOne({"--help"}, 2, [](CliReader &) {}),
                ::testing::ExitedWithCode(0), "");
}

} // namespace
