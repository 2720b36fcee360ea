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

TEST(OptKnobsConfig, LeversDefaultOn)
{
    // The pipeline survived the microstep crash sweeps and is the
    // build default on every layer: the bundle and the engine
    // parameters must agree.
    const OptKnobs knobs;
    EXPECT_TRUE(knobs.bmtPipeline);
    EXPECT_TRUE(SystemConfig::paperDefault().secure.bmtPipeline);
}

TEST(OptKnobsConfig, ParseNamesTheExactLeverSet)
{
    const auto none = parseOptKnobs("none");
    ASSERT_TRUE(none);
    EXPECT_FALSE(none->bmtPipeline);

    // "all" and "bmt-pipeline" name the same machine: the pipeline is
    // the only lever, so repro lines printed with either replay it.
    for (const char *spec : {"all", "bmt-pipeline"}) {
        const auto on = parseOptKnobs(spec);
        ASSERT_TRUE(on) << spec;
        EXPECT_TRUE(on->bmtPipeline) << spec;
    }
}

TEST(OptKnobsConfig, ParseRejectsBadSpecsInsteadOfClamping)
{
    // Every malformed spec must yield nullopt (a loud usage error at
    // the CLI), never a silently-adjusted bundle.
    EXPECT_EQ(parseOptKnobs(""), std::nullopt);
    EXPECT_EQ(parseOptKnobs("everything"), std::nullopt);
    EXPECT_EQ(parseOptKnobs("bmt-pipeline,bogus"), std::nullopt);
    EXPECT_EQ(parseOptKnobs("BMT-PIPELINE"), std::nullopt);
    EXPECT_EQ(parseOptKnobs("bmt-pipeline,"), std::nullopt);
    // The pipeline window is an engine parameter
    // (SecureParams::bmtPipelineWindow), not a lever.
    EXPECT_EQ(parseOptKnobs("bmt-window=4"), std::nullopt);
    // Retired levers are rejected outright, alone or in a list.
    EXPECT_EQ(parseOptKnobs("drain-batch"), std::nullopt);
    EXPECT_EQ(parseOptKnobs("tag-prefetch"), std::nullopt);
    EXPECT_EQ(parseOptKnobs("bmt-pipeline,tag-prefetch"), std::nullopt);
}

TEST(OptKnobsConfig, FormatParseRoundTrips)
{
    // Repro lines print formatOptKnobs unconditionally; the printed
    // spec must parse back to the identical bundle.
    for (const bool bp : {false, true}) {
        const OptKnobs k{bp};
        const std::string spec = formatOptKnobs(k);
        const auto back = parseOptKnobs(spec);
        ASSERT_TRUE(back) << spec;
        EXPECT_EQ(back->bmtPipeline, k.bmtPipeline) << spec;
    }
    EXPECT_EQ(formatOptKnobs(OptKnobs{}), "all");
    EXPECT_EQ(formatOptKnobs(OptKnobs{false}), "none");
}

TEST(OptKnobsConfig, ZeroPipelineWindowIsRejectedByValidation)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.secure.bmtPipeline = true;
    cfg.secure.bmtPipelineWindow = 0;
    EXPECT_NE(validateConfig(cfg).find("bmtPipelineWindow"),
              std::string::npos)
        << validateConfig(cfg);
    EXPECT_THROW({ System sys(cfg); }, std::invalid_argument);

    // With the pipeline off the window is dormant and unconstrained.
    cfg.secure.bmtPipeline = false;
    EXPECT_EQ(validateConfig(cfg), "");
}

TEST(OptKnobsConfig, ApplyOverridesEveryLayer)
{
    auto cfg = SystemConfig::paperDefault();
    applyOptKnobs(cfg, OptKnobs{false});
    EXPECT_FALSE(cfg.secure.bmtPipeline);
    applyOptKnobs(cfg, OptKnobs{true});
    EXPECT_TRUE(cfg.secure.bmtPipeline);
}

} // namespace
