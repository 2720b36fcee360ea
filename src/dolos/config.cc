/**
 * @file
 * Configuration vocabulary: the security-mode name table, config
 * validation and the --opt-knobs spec.
 */

#include "dolos/config.hh"

namespace dolos
{

namespace
{

/** Every spelling of one security mode. */
struct ModeNames
{
    SecurityMode mode;
    const char *cli;     ///< --mode spelling, printed in REPRO lines
    const char *display; ///< human-readable name (bench/report output)
    const char *alias;   ///< legacy --mode spelling, or nullptr
};

/** The one place the mode list is spelled out. */
constexpr ModeNames modeTable[] = {
    {SecurityMode::NonSecureIdeal, "ideal", "NonSecureIdeal", nullptr},
    {SecurityMode::PreWpqSecure, "baseline", "PreWpqSecure", nullptr},
    {SecurityMode::PostWpqUnprotected, "post-unprotected",
     "PostWpqUnprotected", nullptr},
    {SecurityMode::DolosFullWpq, "dolos-full", "Dolos-Full-WPQ",
     "full_wpq"},
    {SecurityMode::DolosPartialWpq, "dolos-partial", "Dolos-Partial-WPQ",
     "partial_wpq"},
    {SecurityMode::DolosPostWpq, "dolos-post", "Dolos-Post-WPQ",
     "post_wpq"},
    {SecurityMode::EadrSecure, "eadr", "Eadr-Secure", nullptr},
};

const ModeNames *
namesOf(SecurityMode mode)
{
    for (const auto &n : modeTable)
        if (n.mode == mode)
            return &n;
    return nullptr;
}

} // namespace

const char *
securityModeName(SecurityMode mode)
{
    const auto *n = namesOf(mode);
    return n ? n->display : "?";
}

const char *
securityModeCliName(SecurityMode mode)
{
    const auto *n = namesOf(mode);
    return n ? n->cli : "?";
}

std::string
securityModeCliNames()
{
    std::string out;
    for (const auto &n : modeTable) {
        if (!out.empty())
            out += '|';
        out += n.cli;
    }
    return out;
}

std::optional<SecurityMode>
parseSecurityMode(const std::string &name)
{
    for (const auto &n : modeTable)
        if (name == n.cli || (n.alias && name == n.alias))
            return n.mode;
    return std::nullopt;
}

std::string
validateConfig(const SystemConfig &cfg)
{
    const auto &w = cfg.wpq;
    if (w.adrBudgetEntries == 0)
        return "wpq.adrBudgetEntries must be nonzero";
    if (w.entriesFor(cfg.mode) == 0)
        return std::string("WPQ for mode ") +
               securityModeName(cfg.mode) + " has zero usable entries";
    if (w.partialEntries > w.adrBudgetEntries)
        return "wpq.partialEntries exceeds the ADR budget";
    if (w.postEntries > w.adrBudgetEntries)
        return "wpq.postEntries exceeds the ADR budget";
    if (w.retryInterval == 0)
        return "wpq.retryInterval must be nonzero (insertion retries "
               "would not advance time)";
    if (cfg.nvm.numBanks == 0)
        return "nvm.numBanks must be nonzero";
    if (cfg.secure.functionalLeaves == 0)
        return "secure.functionalLeaves must be nonzero";
    if (cfg.secure.map.protectedBytes == 0)
        return "secure.map.protectedBytes must be nonzero";
    if (cfg.secure.crashScheme == CrashScheme::Osiris &&
        cfg.secure.osirisStopLoss == 0)
        return "secure.osirisStopLoss must be nonzero under Osiris";
    if (cfg.secure.macOpsEagerWrite == 0 ||
        cfg.secure.macOpsLazyWrite == 0)
        return "secure.macOps per write must be nonzero";
    if (cfg.secure.bmtPipeline && cfg.secure.bmtPipelineWindow == 0)
        return "secure.bmtPipelineWindow must be nonzero when "
               "bmtPipeline is enabled";
    if (cfg.mode == SecurityMode::EadrSecure &&
        cfg.eadr.energyBudgetCycles == 0)
        return "eadr.energyBudgetCycles must be nonzero in eADR mode "
               "(the holdup flush could never admit a line)";
    return "";
}

std::optional<OptKnobs>
parseOptKnobs(const std::string &spec)
{
    // The spec names the *exact* lever set — it does not toggle on
    // top of the defaults, so a repro line parses to the same machine
    // whatever the defaults of the build that replays it.
    if (spec == "none")
        return OptKnobs{false};
    if (spec == "all" || spec == "bmt-pipeline")
        return OptKnobs{true};
    return std::nullopt;
}

std::string
formatOptKnobs(const OptKnobs &knobs)
{
    return knobs.bmtPipeline ? "all" : "none";
}

void
applyOptKnobs(SystemConfig &cfg, const OptKnobs &knobs)
{
    cfg.secure.bmtPipeline = knobs.bmtPipeline;
}

} // namespace dolos
