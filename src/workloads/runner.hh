/**
 * @file
 * Workload runner: drives a workload on a System, measures the
 * metrics the paper reports, and optionally injects a power failure
 * at a chosen operation.
 */

#ifndef DOLOS_WORKLOADS_RUNNER_HH
#define DOLOS_WORKLOADS_RUNNER_HH

#include <functional>
#include <optional>

#include "workloads/workload.hh"

namespace dolos::workloads
{

/** Measured outcome of a run. */
struct RunResult
{
    std::string workload;
    SecurityMode mode{};
    std::uint64_t transactions = 0;   ///< committed before any crash
    Tick setupCycles = 0;
    Tick runCycles = 0;               ///< excludes setup
    std::uint64_t instructions = 0;   ///< during the measured run
    double cpi = 0.0;
    double retriesPerKwr = 0.0;       ///< Table 2 metric
    std::uint64_t retryEvents = 0;
    std::uint64_t writeRequests = 0;
    std::uint64_t fenceStallCycles = 0;
    std::uint64_t wpqReadHits = 0;
    std::uint64_t coalesces = 0;
    bool crashed = false;             ///< crash was injected
    unsigned recoveryAttempts = 0;    ///< boots until recovery done
    bool verified = false;            ///< structure consistent after run
    std::string verifyDiagnostic;

    /** Cycles per committed transaction (speedup basis). */
    double
    cyclesPerTx() const
    {
        return transactions ? double(runCycles) / double(transactions)
                            : 0.0;
    }
};

/** Crash injection request. */
struct CrashPlan
{
    CrashPlan() = default;

    /** The common case: only a crash point, no hooks. */
    explicit CrashPlan(std::uint64_t at_op) : atOp(at_op) {}

    /** Power fails at the Nth environment operation of the run. */
    std::uint64_t atOp = 0;

    /**
     * Microstep crash: instead of counting environment operations,
     * arm the global crash-point registry (sim/crash_points.hh) to
     * fail power at this firing index, counted from the end of
     * setup. Power dies *inside* the persist path's security work —
     * mid BMT climb, between the ciphertext write and the redo clear
     * — rather than between core operations. When set, atOp is ignored.
     */
    std::optional<std::uint64_t> atMicrostep;

    /**
     * eADR flush microstep: crash at atOp as usual, but arm the
     * crash-point registry at this firing index *counting from the
     * moment power dies* — the armed point then fires inside the
     * crash path itself (grace drains or the eADR holdup flush),
     * modeling the holdup energy dying during the power-fail flush.
     * The controller catches the throw internally and quarantines
     * whatever the truncated flush left behind. EadrSecure only.
     */
    std::optional<std::uint64_t> atFlushMicrostep;

    /**
     * Cold-boot hook: runs after the power failure (ADR dump done,
     * volatile state gone) and before recovery boots. Fault
     * injectors use it to tamper with the powered-off NVM image.
     */
    std::function<void(System &)> atPowerOff;

    /**
     * Compound failure: power dies *again* during recovery, after
     * this many interruptible recovery steps. The runner then keeps
     * power-cycling until recovery completes (see
     * SecureMemController::armRecoveryCrash).
     */
    std::optional<unsigned> recoveryCrashStep;
};

/**
 * Run @p workload on @p sys: setup, @p num_tx transactions, then
 * verification. With a CrashPlan, the run crashes at the chosen
 * point, recovers (transaction-log rollback included), and verifies
 * the recovered state.
 *
 * @param do_setup Pass false to continue a workload on a machine it
 *                 already populated (e.g., after a crash+recovery).
 */
RunResult runWorkload(System &sys, Workload &workload,
                      std::uint64_t num_tx,
                      std::optional<CrashPlan> crash = std::nullopt,
                      bool do_setup = true);

} // namespace dolos::workloads

#endif // DOLOS_WORKLOADS_RUNNER_HH
