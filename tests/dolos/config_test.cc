/**
 * @file
 * SecurityMode / WpqParams configuration coverage: every enumerator
 * must have a usable-entry count, a distinct human-readable name and
 * a correct Dolos-family classification.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "dolos/config.hh"
#include "dolos/system.hh"

namespace
{

using namespace dolos;

constexpr SecurityMode allModes[] = {
    SecurityMode::NonSecureIdeal,     SecurityMode::PreWpqSecure,
    SecurityMode::PostWpqUnprotected, SecurityMode::DolosFullWpq,
    SecurityMode::DolosPartialWpq,    SecurityMode::DolosPostWpq,
    SecurityMode::EadrSecure,
};

TEST(WpqParamsConfig, EntriesForEveryMode)
{
    const WpqParams p; // paper defaults: 16 / 13 / 10
    EXPECT_EQ(p.entriesFor(SecurityMode::NonSecureIdeal), 16u);
    EXPECT_EQ(p.entriesFor(SecurityMode::PreWpqSecure), 16u);
    EXPECT_EQ(p.entriesFor(SecurityMode::PostWpqUnprotected), 16u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosFullWpq), 16u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosPartialWpq), 13u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosPostWpq), 10u);
}

TEST(WpqParamsConfig, EntriesForTracksTunedParams)
{
    WpqParams p;
    p.adrBudgetEntries = 32;
    p.partialEntries = 26;
    p.postEntries = 20;
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosFullWpq), 32u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosPartialWpq), 26u);
    EXPECT_EQ(p.entriesFor(SecurityMode::DolosPostWpq), 20u);
    EXPECT_EQ(p.entriesFor(SecurityMode::PreWpqSecure), 32u);
}

TEST(WpqParamsConfig, NoModeExceedsTheAdrBudget)
{
    const WpqParams p;
    for (const auto mode : allModes)
        EXPECT_LE(p.entriesFor(mode), p.adrBudgetEntries)
            << securityModeName(mode);
}

TEST(SecurityModeConfig, NamesAreNonEmptyAndDistinct)
{
    std::set<std::string> seen;
    for (const auto mode : allModes) {
        const std::string name = securityModeName(mode);
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate mode name: " << name;
    }
    EXPECT_EQ(seen.size(), std::size(allModes));
}

TEST(SecurityModeConfig, ExpectedNames)
{
    EXPECT_STREQ(securityModeName(SecurityMode::NonSecureIdeal),
                 "NonSecureIdeal");
    EXPECT_STREQ(securityModeName(SecurityMode::PreWpqSecure),
                 "PreWpqSecure");
    EXPECT_STREQ(securityModeName(SecurityMode::PostWpqUnprotected),
                 "PostWpqUnprotected");
    EXPECT_STREQ(securityModeName(SecurityMode::DolosFullWpq),
                 "Dolos-Full-WPQ");
    EXPECT_STREQ(securityModeName(SecurityMode::DolosPartialWpq),
                 "Dolos-Partial-WPQ");
    EXPECT_STREQ(securityModeName(SecurityMode::DolosPostWpq),
                 "Dolos-Post-WPQ");
    EXPECT_STREQ(securityModeName(SecurityMode::EadrSecure),
                 "Eadr-Secure");
}

TEST(SecurityModeConfig, DolosFamilyClassification)
{
    EXPECT_FALSE(isDolosMode(SecurityMode::NonSecureIdeal));
    EXPECT_FALSE(isDolosMode(SecurityMode::PreWpqSecure));
    EXPECT_FALSE(isDolosMode(SecurityMode::PostWpqUnprotected));
    EXPECT_TRUE(isDolosMode(SecurityMode::DolosFullWpq));
    EXPECT_TRUE(isDolosMode(SecurityMode::DolosPartialWpq));
    EXPECT_TRUE(isDolosMode(SecurityMode::DolosPostWpq));
}

TEST(SecurityModeConfig, ParseAcceptsEveryCliNameAndAlias)
{
    EXPECT_EQ(parseSecurityMode("ideal"), SecurityMode::NonSecureIdeal);
    EXPECT_EQ(parseSecurityMode("baseline"),
              SecurityMode::PreWpqSecure);
    EXPECT_EQ(parseSecurityMode("post-unprotected"),
              SecurityMode::PostWpqUnprotected);
    EXPECT_EQ(parseSecurityMode("dolos-full"),
              SecurityMode::DolosFullWpq);
    EXPECT_EQ(parseSecurityMode("full_wpq"),
              SecurityMode::DolosFullWpq);
    EXPECT_EQ(parseSecurityMode("dolos-partial"),
              SecurityMode::DolosPartialWpq);
    EXPECT_EQ(parseSecurityMode("partial_wpq"),
              SecurityMode::DolosPartialWpq);
    EXPECT_EQ(parseSecurityMode("dolos-post"),
              SecurityMode::DolosPostWpq);
    EXPECT_EQ(parseSecurityMode("post_wpq"),
              SecurityMode::DolosPostWpq);
    EXPECT_EQ(parseSecurityMode("eadr"), SecurityMode::EadrSecure);
    // Every mode's printed CLI name (REPRO lines) parses back to it.
    for (const auto mode : allModes)
        EXPECT_EQ(parseSecurityMode(securityModeCliName(mode)), mode)
            << securityModeCliName(mode);
}

TEST(SecurityModeConfig, ParseRejectsUnknownNames)
{
    // Rejected loudly as "no value" — never clamped to some default.
    EXPECT_EQ(parseSecurityMode(""), std::nullopt);
    EXPECT_EQ(parseSecurityMode("dolos"), std::nullopt);
    EXPECT_EQ(parseSecurityMode("IDEAL"), std::nullopt);
    EXPECT_EQ(parseSecurityMode("full-wpq"), std::nullopt);
}

TEST(ConfigValidation, PaperDefaultsAreValidForEveryMode)
{
    for (const auto mode : allModes) {
        auto cfg = SystemConfig::paperDefault();
        cfg.mode = mode;
        EXPECT_EQ(validateConfig(cfg), "") << securityModeName(mode);
    }
}

TEST(ConfigValidation, ZeroAdrBudgetIsRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.wpq.adrBudgetEntries = 0;
    EXPECT_NE(validateConfig(cfg).find("adrBudgetEntries"),
              std::string::npos)
        << validateConfig(cfg);
}

TEST(ConfigValidation, ZeroEntryQueueForActiveModeIsRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.wpq.partialEntries = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    // The same zero is fine when another mode is selected — only the
    // active queue is constrained.
    cfg.mode = SecurityMode::DolosFullWpq;
    EXPECT_EQ(validateConfig(cfg), "");
}

TEST(ConfigValidation, OversizedModeQueuesAreRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.wpq.partialEntries = cfg.wpq.adrBudgetEntries + 1;
    EXPECT_NE(validateConfig(cfg).find("exceeds"), std::string::npos)
        << validateConfig(cfg);

    cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPostWpq;
    cfg.wpq.postEntries = cfg.wpq.adrBudgetEntries + 1;
    EXPECT_FALSE(validateConfig(cfg).empty());
}

TEST(ConfigValidation, DegenerateTimingAndGeometryAreRejected)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.wpq.retryInterval = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    cfg = SystemConfig::paperDefault();
    cfg.nvm.numBanks = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    cfg = SystemConfig::paperDefault();
    cfg.secure.functionalLeaves = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    cfg = SystemConfig::paperDefault();
    cfg.secure.map.protectedBytes = 0;
    EXPECT_FALSE(validateConfig(cfg).empty());

    // Cache geometry the set-index arithmetic cannot use: zero ways
    // or size would divide by zero, a partial way would panic. Every
    // cache level and both metadata caches are checked.
    const auto rejected = [](void (*edit)(SystemConfig &),
                             const char *expect) {
        auto c = SystemConfig::paperDefault();
        edit(c);
        const std::string err = validateConfig(c);
        EXPECT_NE(err.find(expect), std::string::npos)
            << expect << ": " << err;
        EXPECT_THROW({ System sys(c); }, std::invalid_argument) << expect;
    };
    rejected([](SystemConfig &c) { c.hierarchy.l2.assoc = 0; },
             "hierarchy.l2.assoc");
    rejected([](SystemConfig &c) { c.secure.counterCache.assoc = 0; },
             "secure.counterCache.assoc");
    rejected([](SystemConfig &c) { c.hierarchy.l1.sizeBytes = 1000; },
             "hierarchy.l1.sizeBytes");
    rejected([](SystemConfig &c) { c.hierarchy.llc.sizeBytes = 0; },
             "hierarchy.llc.sizeBytes");
    rejected([](SystemConfig &c) { c.secure.mtCache.sizeBytes = 64 * 3; },
             "secure.mtCache.sizeBytes");
}

TEST(ConfigValidation, SystemCtorThrowsInsteadOfClamping)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.wpq.adrBudgetEntries = 0;
    EXPECT_THROW({ System sys(cfg); }, std::invalid_argument);

    // The thrown message carries the validator's diagnostic.
    cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.wpq.partialEntries = cfg.wpq.adrBudgetEntries + 1;
    try {
        System sys(cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("partialEntries"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidation, ValidConfigConstructs)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPostWpq;
    EXPECT_NO_THROW({ System sys(cfg); });
}

TEST(PipelineSpecConfig, FormatParseRoundTrips)
{
    // Repro lines print pipelineSpecName unconditionally; the printed
    // spec must parse back to the identical lever state.
    for (const bool on : {false, true}) {
        const std::string spec = pipelineSpecName(on);
        EXPECT_EQ(parsePipelineSpec(spec), on) << spec;
    }
    EXPECT_STREQ(pipelineSpecName(true), "all");
    EXPECT_STREQ(pipelineSpecName(false), "none");
}

} // namespace
