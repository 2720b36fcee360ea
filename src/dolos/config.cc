/**
 * @file
 * Configuration vocabulary: the security-mode design table, config
 * validation and the --opt-knobs spellings.
 */

#include "dolos/config.hh"

#include <iterator>
#include <string>

#include "mem/tag_array.hh"
#include "sim/logging.hh"

namespace dolos
{

namespace
{

using enum SecurityPlacement;

/**
 * The one place the modes and their designs are spelled out, in enum
 * order. Columns left out take ModeTraits' defaults.
 */
constexpr ModeTraits modeTable[] = {
    {.mode = SecurityMode::NonSecureIdeal, .cli = "ideal",
     .display = "NonSecureIdeal"},
    {.mode = SecurityMode::PreWpqSecure, .cli = "baseline",
     .display = "PreWpqSecure", .security = BeforeWpq},
    // Security runs on ADR power for every dumped entry (Figure 6).
    {.mode = SecurityMode::PostWpqUnprotected, .cli = "post-unprotected",
     .display = "PostWpqUnprotected", .security = AfterWpq,
     .adrSecurityBytes = 2048},
    // Entry MACs and the root are on-chip registers, so the dump
    // carries no MACs and the whole budget flushes entries.
    {.mode = SecurityMode::DolosFullWpq, .cli = "dolos-full",
     .display = "Dolos-Full-WPQ", .alias = "full_wpq",
     .security = AfterWpq, .misu = true, .inPathMacs = 2,
     .rootMac = true, .misuMacBytes = 192},
    // Entry MACs are dumped with the entries: 1/9 of the budget.
    {.mode = SecurityMode::DolosPartialWpq, .cli = "dolos-partial",
     .display = "Dolos-Partial-WPQ", .alias = "partial_wpq",
     .security = AfterWpq, .misu = true,
     .wpqEntries = &WpqParams::partialEntries, .inPathMacs = 1,
     .dumpMacBlocks = 2, .entryBytes = 80, .misuMacBytes = 128},
    // The MAC runs after commit; ADR reserves energy for one.
    {.mode = SecurityMode::DolosPostWpq, .cli = "dolos-post",
     .display = "Dolos-Post-WPQ", .alias = "post_wpq",
     .security = AfterWpq, .misu = true,
     .wpqEntries = &WpqParams::postEntries, .deferredMacs = 1,
     .dumpMacBlocks = 2, .entryBytes = 80, .reserveBytes = 252,
     .misuMacBytes = 128},
    // The holdup flush writes one 64B line per item.
    {.mode = SecurityMode::EadrSecure, .cli = "eadr",
     .display = "Eadr-Secure", .security = AfterWpq, .eadrDomain = true,
     .entryBytes = 64},
};

constexpr bool
inEnumOrder()
{
    for (std::size_t i = 0; i < std::size(modeTable); ++i)
        if (std::size_t(modeTable[i].mode) != i)
            return false;
    return true;
}
static_assert(inEnumOrder(), "modeTable rows must follow SecurityMode");

/** The --opt-knobs spellings of bmtPipeline, indexed by its state. */
constexpr const char *pipelineSpecs[] = {"none", "all"};

} // namespace

const ModeTraits &
modeTraits(SecurityMode mode)
{
    DOLOS_ASSERT(std::size_t(mode) < std::size(modeTable),
                 "no design row for mode %d", int(mode));
    return modeTable[std::size_t(mode)];
}

unsigned
WpqParams::entriesFor(SecurityMode mode) const
{
    return this->*modeTraits(mode).wpqEntries;
}

const char *
securityModeName(SecurityMode mode)
{
    return modeTraits(mode).display;
}

const char *
securityModeCliName(SecurityMode mode)
{
    return modeTraits(mode).cli;
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
    const auto &h = cfg.hierarchy;
    const auto &sp = cfg.secure;
    const struct
    {
        const char *name;
        std::uint64_t sizeBytes;
        unsigned assoc;
    } caches[] = {
        {"hierarchy.l1", h.l1.sizeBytes, h.l1.assoc},
        {"hierarchy.l2", h.l2.sizeBytes, h.l2.assoc},
        {"hierarchy.llc", h.llc.sizeBytes, h.llc.assoc},
        {"secure.counterCache", sp.counterCache.sizeBytes,
         sp.counterCache.assoc},
        {"secure.mtCache", sp.mtCache.sizeBytes, sp.mtCache.assoc},
    };
    for (const auto &c : caches)
        if (const std::string bad = TagArray::geometryError(c.sizeBytes,
                                                            c.assoc);
            !bad.empty())
            return std::string(c.name) + "." + bad;
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
    if (modeTraits(cfg.mode).eadrDomain &&
        cfg.eadr.energyBudgetCycles == 0)
        return "eadr.energyBudgetCycles must be nonzero in eADR mode "
               "(the holdup flush could never admit a line)";
    return "";
}

std::optional<bool>
parsePipelineSpec(const std::string &spec)
{
    for (const bool on : {false, true})
        if (spec == pipelineSpecs[on])
            return on;
    return std::nullopt;
}

const char *
pipelineSpecName(bool bmt_pipeline)
{
    return pipelineSpecs[bmt_pipeline];
}

} // namespace dolos
