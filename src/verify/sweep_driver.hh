/**
 * @file
 * Exhaustive crash-point sweep driver.
 *
 * A crash can only change the persistent outcome when the WPQ's
 * contents changed since the previous candidate point, so the sweep
 * enumerates *WPQ-insertion boundaries*: the environment-operation
 * indices at which the controller accepted at least one new write
 * request. A probe run records the boundary set for a (mode,
 * workload, seed) triple; the sweep then replays the workload from
 * scratch once per boundary, crashes there, recovers, and checks the
 * machine against the golden model's committed-prefix contract plus
 * the workload's own structural verifier.
 *
 * Exhaustive sweeps are the gold standard but grow with the
 * transaction count, so a budget selects an evenly-strided, seeded
 * subset (always keeping the first and last boundary) for CI.
 */

#ifndef DOLOS_VERIFY_SWEEP_DRIVER_HH
#define DOLOS_VERIFY_SWEEP_DRIVER_HH

#include <string>
#include <vector>

#include "dolos/config.hh"
#include "verify/diff_oracle.hh"
#include "workloads/runner.hh"

namespace dolos::verify
{

/**
 * The small crash-test machine: paper defaults with an 8K-page
 * functional tree and caches small enough to force eviction traffic,
 * so crash sweeps and fault campaigns finish in CI time.
 */
SystemConfig crashTestConfig(SecurityMode mode);

/** Workload parameters small enough for crash sweeps. */
workloads::WorkloadParams crashTestParams(std::uint64_t seed);

/** Which operation indices qualify as crash candidates. */
enum class CrashPoints
{
    /** WPQ-insertion boundaries (the persistent state changed). */
    WpqBoundaries,

    /**
     * Every environment operation — the arbitrary-cycle sweep. More
     * points than WpqBoundaries buys, but catches bugs in paths that
     * never touch the WPQ (fences, loads, recovery bookkeeping).
     */
    EveryOp,

    /**
     * Every firing of a named persist-path crash point
     * (sim/crash_points.hh): power dies *inside* a drain's security
     * work — mid BMT-pipeline climb, between the ciphertext write and
     * the redo clear — instead of between core operations. This is
     * the only point set that reaches the intermediate states inside
     * a drain, including those the bmtPipeline lever introduces.
     *
     * Dolos modes: firings of the measured run are enumerated
     * directly (the probe finds none elsewhere). EadrSecure: the
     * interesting firings happen inside crash() itself — the holdup
     * flush — so the sweep picks a few anchor operations, probes
     * how many crash points fire during the power-fail flush at
     * each, and encodes each point as (anchor_op << 24) | firing
     * (flush firings are bounded far below 2^24). The armed run
     * then crashes at the anchor with the registry armed at that
     * in-flush firing: power failure during the power failure.
     */
    Microstep,
};

/** One (mode, workload) sweep configuration. */
struct SweepOptions
{
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    std::string workload = "hashmap";
    std::uint64_t numTx = 6;
    workloads::WorkloadParams params;
    SystemConfig base; ///< mode is overridden per sweep

    /**
     * Max crash points actually run; 0 = exhaustive. Sampling is
     * evenly strided with a seeded offset and always includes the
     * first and last boundary.
     */
    std::size_t budget = 0;
    std::uint64_t sampleSeed = 1;

    /** Candidate-point enumeration strategy. */
    CrashPoints pointSet = CrashPoints::WpqBoundaries;

    /**
     * Compound failure: arm a second power failure after this many
     * recovery steps at every crash point, forcing the restartable
     * recovery path (see CrashPlan::recoveryCrashStep).
     */
    std::optional<unsigned> recoveryCrashStep;

    /**
     * Metadata-fault sweep: at every crash point, after power-off but
     * before recovery, stick one bit of a security-metadata frame
     * (counter block / tree node / MAC block, rotating with the crash
     * op) covering a seeded victim block. Recovery must repair or
     * cascade — never false-alarm — and the oracle then verifies
     * every block without an unhealable fault.
     */
    bool metadataFaults = false;

    /**
     * Emit an NDJSON heartbeat record to stderr every this many
     * finished crash points (0 = silent); the record carries the
     * crash op as its "seed". See sim/heartbeat.hh for the schema.
     */
    std::uint64_t heartbeatEvery = 0;

    /**
     * Worker threads running crash points (0 counts as 1); see
     * verify/campaign.hh. The sweep verdict is bit-identical for any
     * jobs value.
     */
    unsigned jobs = 1;
};

/** Outcome of one crash point. */
struct CrashPointResult
{
    std::uint64_t crashOp = 0;
    bool structureVerified = false; ///< workload's own verifier
    bool attackDetected = false;    ///< must stay false (no faults)
    bool crashFired = true;         ///< the armed crash actually hit
    unsigned recoveryAttempts = 0;  ///< boots until recovery done
    std::string microstep;          ///< fired step name (microstep)

    /**
     * eADR only: the holdup flush ran out of energy (or was itself
     * interrupted) and quarantined the lines it could not cover.
     * Data loss is then the *declared* outcome — the workload's
     * structural verifier may legitimately fail over the quarantined
     * lines, but the oracle must still agree on every surviving
     * block and the loss must be loud (quarantine records with
     * cause provenance), never silent corruption.
     */
    bool expectedLoss = false;

    OracleReport oracle;

    bool
    passed() const
    {
        return (structureVerified || expectedLoss) && oracle.clean() &&
               !attackDetected && crashFired;
    }
};

/** Outcome of a whole sweep. */
struct SweepResult
{
    std::vector<std::uint64_t> boundaries; ///< all enumerated
    std::vector<CrashPointResult> points;  ///< the ones actually run

    /**
     * The sweep monitor's summary record (sim/heartbeat.hh): its clock
     * spans the crash points and failedSeeds lists failing crash ops.
     */
    std::string summary;

    std::size_t
    failures() const
    {
        std::size_t n = 0;
        for (const auto &p : points)
            n += !p.passed();
        return n;
    }

    bool allPassed() const { return failures() == 0; }

    /** Every point's oracle counts summed (diagnostics left empty). */
    OracleReport oracleTotals() const;

    /** Diagnostic for the first failing point (empty if none). */
    std::string firstFailure() const;
};

/**
 * Probe run: enumerate every WPQ-insertion boundary of the workload
 * (environment-operation indices where the controller accepted new
 * write requests), in increasing order.
 */
std::vector<std::uint64_t> enumerateWpqBoundaries(const SweepOptions &opt);

/**
 * Candidate crash points under opt.pointSet: WPQ boundaries, every
 * environment-operation index of the measured run (1..total), or —
 * for Microstep — every crash-point firing index of the measured
 * run (0..firings-1), recorded by a counting probe run.
 */
std::vector<std::uint64_t> enumerateCrashPoints(const SweepOptions &opt);

/** One-line repro description for failure messages: the options a
 *  command needs to replay this sweep (mode, workload, seeds). */
std::string describeSweep(const SweepOptions &opt);

/**
 * Run one crash point from scratch: fresh machine with an attached
 * golden model, crash at @p crash_op, recover, check structure and
 * committed-prefix agreement.
 */
CrashPointResult runCrashPoint(const SweepOptions &opt,
                               std::uint64_t crash_op);

/** Enumerate boundaries, sample within budget, run every sample. */
SweepResult sweepCrashPoints(const SweepOptions &opt);

} // namespace dolos::verify

#endif // DOLOS_VERIFY_SWEEP_DRIVER_HH
