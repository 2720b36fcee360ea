/**
 * @file
 * Top-level system configuration (paper Table 1 defaults).
 */

#ifndef DOLOS_DOLOS_CONFIG_HH
#define DOLOS_DOLOS_CONFIG_HH

#include <optional>
#include <string>

#include "mem/hierarchy.hh"
#include "mem/nvm_device.hh"
#include "secure/security_engine.hh"

namespace dolos
{

/**
 * Memory-controller security organization (paper Figure 5).
 */
enum class SecurityMode
{
    /**
     * Non-secure ADR system: a write persists the moment it enters
     * the WPQ. The ideal the paper measures overhead against.
     */
    NonSecureIdeal,

    /**
     * Figure 5-b: the conventional secure-NVM controller
     * (Anubis/AGIT). All security work precedes WPQ insertion; the
     * paper's baseline ("Pre-WPQ-Secure").
     */
    PreWpqSecure,

    /**
     * Figure 5-c: the infeasible strawman — writes persist at WPQ
     * insertion and security runs at eviction, assuming ADR could
     * power full security processing of the drained WPQ. Used only
     * for the Figure 6 motivation study.
     */
    PostWpqUnprotected,

    /** Dolos with the Full-WPQ-MiSU design (2 MACs, 16 entries). */
    DolosFullWpq,

    /** Dolos with the Partial-WPQ-MiSU design (1 MAC, 13 entries). */
    DolosPartialWpq,

    /** Dolos with the Post-WPQ-MiSU design (0 MACs in path, 10). */
    DolosPostWpq,

    /**
     * eADR-class machine: dirty cache lines are inside the
     * persistence domain, so CLWB/fence leaves the critical path
     * entirely. On power failure a holdup-energy flush drains every
     * dirty line (and undrained WPQ entry) through the full security
     * pipeline — counter bump, MAC, BMT update, NVM write — under the
     * bounded eadr.energyBudgetCycles budget. Lines the budget cannot
     * cover are quarantined with cause provenance, never silently
     * corrupted.
     */
    EadrSecure,
};

/** Human-readable mode name (bench output). */
const char *securityModeName(SecurityMode mode);

/**
 * The mode's --mode spelling (dolos-partial, eadr, ...), as printed
 * in REPRO lines: parseSecurityMode(securityModeCliName(m)) == m.
 */
const char *securityModeCliName(SecurityMode mode);

/** Every --mode spelling joined by '|', for usage text. */
std::string securityModeCliNames();

/**
 * Parse a CLI mode name (ideal|baseline|post-unprotected|dolos-full|
 * dolos-partial|dolos-post|eadr, plus the full_wpq/partial_wpq/
 * post_wpq aliases). Unknown strings yield nullopt — callers must
 * reject them, never clamp to a default.
 */
std::optional<SecurityMode> parseSecurityMode(const std::string &name);

/** WPQ and ADR parameters. */
struct WpqParams
{
    /**
     * ADR energy budget expressed as the entry count of the
     * non-secure / Full-WPQ configuration (paper: 16).
     */
    unsigned adrBudgetEntries = 16;

    /** Usable entries for Partial-WPQ-MiSU (paper: 13 of 16). */
    unsigned partialEntries = 13;

    /** Usable entries for Post-WPQ-MiSU (paper: 10 of 16). */
    unsigned postEntries = 10;

    /** Cycles between insertion re-try attempts when the WPQ is full. */
    Cycles retryInterval = 500;

    /** Transit latency from LLC to the memory controller. */
    Cycles mcTransitLatency = 4;

    /** Mi-SU MAC latency (Table 1: 160). */
    Cycles misuMacLatency = 160;

    /** Enable write coalescing via the volatile tag array. */
    bool coalescing = true;

    /** Usable entries for the given mode (its design row's column). */
    unsigned entriesFor(SecurityMode mode) const;
};

/** Where a mode's security engine sits relative to the WPQ. */
enum class SecurityPlacement
{
    None,      ///< no security engine: plaintext NVM
    BeforeWpq, ///< secured before insertion; the WPQ holds ciphertext
    AfterWpq,  ///< persists at insertion; the engine serves drains
};

/**
 * One design row per security mode: every number and switch the
 * simulator reads by mode, the way the paper states each design
 * (Figure 5, §4, Table 3). The rows live in config.cc; code reads the
 * columns and never tests the enum.
 */
struct ModeTraits
{
    SecurityMode mode;
    const char *cli;     ///< --mode spelling, printed in REPRO lines
    const char *display; ///< human-readable name (bench/report output)
    const char *alias = nullptr; ///< legacy --mode spelling

    SecurityPlacement security = SecurityPlacement::None;
    bool misu = false; ///< Mi-SU protects the WPQ; ADR dumps its images

    /**
     * The caches are inside the persistence domain (eADR): CLWB is a
     * no-op and a crash runs the holdup flush instead of an ADR dump.
     */
    bool eadrDomain = false;

    /** The WpqParams field holding this design's usable entries. */
    unsigned WpqParams::*wpqEntries = &WpqParams::adrBudgetEntries;

    unsigned inPathMacs = 0;    ///< Mi-SU MACs before commit (2/1/0)
    unsigned deferredMacs = 0;  ///< Mi-SU MACs after commit (Post: 1)
    bool rootMac = false;       ///< Mi-SU WPQ-tree root register (Full)
    unsigned dumpMacBlocks = 0; ///< MAC blocks in the ADR dump (0/2/2)
    unsigned entryBytes = 72;   ///< ADR bytes and Mi-SU pad per entry
    unsigned adrSecurityBytes = 0; ///< ADR energy to secure one entry
    unsigned reserveBytes = 0;  ///< ADR reserve for a deferred MAC
    unsigned misuMacBytes = 0;  ///< Mi-SU MAC storage (Table 3)
};

/** The design row of @p mode. */
const ModeTraits &modeTraits(SecurityMode mode);

/** True for the three Dolos Mi-SU modes. */
inline bool
isDolosMode(SecurityMode mode)
{
    return modeTraits(mode).misu;
}

/** eADR holdup-energy parameters (EadrSecure mode only). */
struct EadrParams
{
    /**
     * Cycles of security-pipeline + NVM-write work the holdup
     * capacitors can power after the failure. The flush admits a
     * line only while used < budget; an admitted line always
     * completes (the capacitor bank is provisioned with one
     * worst-case line of margin). The default covers a worst-case
     * full-hierarchy flush — the "big battery" an eADR platform
     * ships; under-provision it deliberately to study truncated
     * flushes. Zero is rejected by validateConfig, never clamped.
     */
    Cycles energyBudgetCycles = 2'000'000'000;
};

/** Everything needed to build a System. */
struct SystemConfig
{
    std::string name = "dolos";
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    HierarchyParams hierarchy;
    NvmParams nvm;
    SecureParams secure;
    WpqParams wpq;
    EadrParams eadr;
    std::uint64_t seed = 42;

    /** The paper's Table 1 configuration. */
    static SystemConfig
    paperDefault()
    {
        SystemConfig cfg;
        // Keep the functional tree over the workload heap (256 MB);
        // timing MAC-op counts correspond to the full 16 GB (Table 1).
        cfg.secure.functionalLeaves = 1 << 16;
        for (int i = 0; i < 16; ++i) {
            cfg.secure.dataKey[i] = std::uint8_t(0x3C ^ (i * 29));
            cfg.secure.macKey[i] = std::uint8_t(0xA5 ^ (i * 17));
        }
        return cfg;
    }
};

/**
 * Validate a configuration before building a System from it.
 * Returns a human-readable description of the first problem found,
 * or an empty string if the config is usable. System's constructor
 * calls this and throws std::invalid_argument on failure, so a bad
 * config is a loud error, never a silently-clamped value.
 */
std::string validateConfig(const SystemConfig &cfg);

/**
 * Parse an --opt-knobs spec into SecureParams::bmtPipeline, the one
 * persist-path lever: "all" is on, "none" is the paper's serial
 * Ma-SU. The spec names the lever's state, not a toggle on top of the
 * build's default. Any other spec yields nullopt; callers must reject
 * it, never clamp.
 */
std::optional<bool> parsePipelineSpec(const std::string &spec);

/**
 * The --opt-knobs spelling of a lever state ("all" or "none");
 * parsePipelineSpec(pipelineSpecName(b)) == b. Repro lines print it
 * unconditionally so they replay across default flips.
 */
const char *pipelineSpecName(bool bmt_pipeline);

} // namespace dolos

#endif // DOLOS_DOLOS_CONFIG_HH
