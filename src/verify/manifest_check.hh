/**
 * @file
 * Power-loss differential check of the declared crash-state model.
 *
 * Each state class's stateManifest() (src/sim/persist_annotations.hh)
 * *declares* which fields survive a power failure; this check
 * *proves* the declaration against the real crash() behavior:
 *
 *  1. Build two identical machines. Drive one ("dirty") with a
 *     deterministic store/CLWB/SFENCE mix that populates every layer
 *     — caches, WPQ, Mi-SU registers, Ma-SU counter/tree caches,
 *     Anubis shadow, NVM — and leaves work in flight (outstanding
 *     CLWBs, undrained WPQ entries) when the power dies.
 *  2. Crash the untouched machine ("pristine") to obtain the
 *     canonical post-crash reset value of every volatile field.
 *  3. Snapshot every manifest field of the dirty machine, crash it,
 *     and snapshot again. Every persistent field must round-trip
 *     unchanged; every volatile (or eADR-flushed) field must equal
 *     the pristine machine's reset value (or satisfy its registered
 *     custom predicate, for dynamic reset values).
 *  4. Recover the dirty machine to completion and require the dump
 *     authentication and root verification to pass — the crash the
 *     check performs must be a *survivable* one.
 *
 * Exposed through `dolos-sim --verify-manifest` and the
 * persist_manifest unit tests for all three Mi-SU modes.
 */

#ifndef DOLOS_VERIFY_MANIFEST_CHECK_HH
#define DOLOS_VERIFY_MANIFEST_CHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dolos/config.hh"

namespace dolos::verify
{

/** One field whose declared crash kind disagrees with crash(). */
struct ManifestMismatch
{
    std::string field;  ///< Class(instance).member label
    std::string kind;   ///< "persistent" / "volatile"
    std::string detail; ///< expected vs observed (truncated)
};

/** Outcome of one mode's power-loss differential. */
struct ManifestCheckResult
{
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    std::size_t manifests = 0;       ///< state classes checked
    std::size_t fieldsChecked = 0;   ///< non-delegated fields compared
    std::size_t delegatedFields = 0; ///< covered via their own manifest
    bool recoveryVerified = false;   ///< post-check recovery clean
    std::vector<ManifestMismatch> mismatches;

    bool ok() const { return mismatches.empty() && recoveryVerified; }
};

/**
 * Run the power-loss differential for @p mode. @p seed varies the
 * deterministic traffic mix; any seed must pass.
 */
ManifestCheckResult verifyCrashManifest(SecurityMode mode,
                                        std::uint64_t seed = 1);

/** Run the differential in the three Dolos (Mi-SU) modes plus
 *  EadrSecure (quiesced, so its holdup flush is a no-op). */
std::vector<ManifestCheckResult>
verifyCrashManifestAllModes(std::uint64_t seed = 1);

/** Human-readable one-mode report (diagnostics on failure). */
std::string formatManifestReport(const ManifestCheckResult &res);

} // namespace dolos::verify

#endif // DOLOS_VERIFY_MANIFEST_CHECK_HH
