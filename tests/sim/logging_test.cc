/**
 * @file
 * Unit tests for the debug-flag gate on debugPrintf.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/logging.hh"

namespace
{

using dolos::DebugFlags;
using dolos::debugPrintf;

std::string
printed(const char *flag, int value)
{
    testing::internal::CaptureStdout();
    debugPrintf(flag, "value=%d", value);
    return testing::internal::GetCapturedStdout();
}

TEST(DebugFlags, EnablePrintDisableSilence)
{
    DebugFlags::clear();
    EXPECT_EQ(printed("Wpq", 1), "");

    DebugFlags::enable("Wpq");
    EXPECT_TRUE(DebugFlags::enabled("Wpq"));
    EXPECT_EQ(printed("Wpq", 2), "[Wpq] value=2\n");
    // Another flag stays silent while Wpq is on.
    EXPECT_EQ(printed("Misu", 3), "");

    DebugFlags::disable("Wpq");
    EXPECT_FALSE(DebugFlags::enabled("Wpq"));
    EXPECT_EQ(printed("Wpq", 4), "");

    DebugFlags::enable("Wpq");
    DebugFlags::enable("Misu");
    DebugFlags::clear();
    EXPECT_EQ(printed("Wpq", 5), "");
    EXPECT_EQ(printed("Misu", 6), "");
}

TEST(DebugFlags, EnvironmentEnablesFlags)
{
    DebugFlags::clear();
    ASSERT_EQ(setenv("DOLOS_DEBUG", "Wpq, MaSu", 1), 0);
    DebugFlags::initFromEnvironment();
    ASSERT_EQ(unsetenv("DOLOS_DEBUG"), 0);

    EXPECT_EQ(printed("MaSu", 7), "[MaSu] value=7\n");
    EXPECT_EQ(printed("Wpq", 8), "[Wpq] value=8\n");
    EXPECT_EQ(printed("Misu", 9), "");

    DebugFlags::clear();
    EXPECT_EQ(printed("MaSu", 10), "");
}

} // namespace
