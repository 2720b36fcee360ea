/**
 * @file
 * Microstep crash-point registry for the optimized persist path.
 *
 * The WPQ-boundary and every-op sweeps arm power failures *between*
 * environment operations; a drain itself passes through intermediate
 * machine states — a fetched but not yet bumped counter, a
 * half-climbed pipelined BMT window (bmtPipeline), a written but not
 * yet cleared redo entry — that those sweeps can never hit.
 * Components mark each such internal step with
 * DOLOS_CRASH_POINT(step); this registry either counts the firings
 * (the sweep's probe run) or throws MicrostepCrash at an armed firing
 * index, which the workload runner converts into a mid-operation
 * power failure checked against the committed-prefix oracle.
 *
 * Like the tracer and the self-profiler this is a host-side test
 * facility: it carries no simulated machine state, so it sits outside
 * the persist-domain crash-state model. The registry instance is
 * thread_local: each parallel sweep worker (--jobs N) arms and probes
 * its own crash plan against the one System it runs, so workers never
 * observe each other's countdowns. Call reset() between runs on the
 * same thread.
 */

#ifndef DOLOS_SIM_CRASH_POINTS_HH
#define DOLOS_SIM_CRASH_POINTS_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace dolos::crashpoint
{

/** One named internal step of the optimized persist path. */
enum class Step : std::uint8_t
{
    // --- Ma-SU security engine (secureWrite internals) -------------
    MasuCtrFetch,    ///< write counter fetched (cache or NVM walk)
    MasuCtrBumped,   ///< counter incremented (after overflow commit)
    MasuAesPad,      ///< OTP pad generated, ciphertext computable
    MasuMacStored,   ///< data MAC recomputed and stored
    MasuBmtLevel,    ///< one charged level of the pipelined BMT climb
    MasuBmtCoalesce, ///< climb joined an in-flight shared ancestor
    MasuRootCommit,  ///< root/shadow commit group done, redo filled
    MasuCtrEvict,    ///< dirty counter block written back to NVM

    // --- controller drain scheduler ---------------------------------
    WpqDrainIssue,   ///< drain handed to the engine
    WpqCtWrite,      ///< drained ciphertext written to NVM
    WpqRedoClear,    ///< redo log cleared, entry about to release

    // --- eADR holdup flush (power already failed) -------------------
    EadrLineSelect,      ///< flush admitted the next dirty line
    EadrNvmWrite,        ///< flushed ciphertext written to NVM
    EadrBudgetExhausted, ///< holdup energy ran out mid-flush

    NumSteps
};

/** Stable lowercase name ("masuBmtLevel", "wpqCtWrite", ...). */
const char *stepName(Step s);

/** Thrown by an armed registry at the targeted firing. */
struct MicrostepCrash
{
    Step step;           ///< which hook fired
    std::uint64_t index; ///< firing index since reset()
};

/**
 * The process-global registry every DOLOS_CRASH_POINT site reports
 * to. Inactive (the default) costs one predicted-not-taken branch
 * per site.
 */
class Registry
{
  public:
    static Registry &instance();

    /** Disarm, stop counting, and forget all recorded firings. */
    void reset();

    /**
     * Count and record every firing without ever crashing — the
     * sweep's probe mode. A deterministic config replays the exact
     * same firing sequence, so recorded indices are valid arm()
     * targets for a fresh run.
     */
    void enableCounting();

    /**
     * Throw MicrostepCrash at the @p fire_at-th firing (0-based,
     * counted since reset()/the current count). Auto-disarms when it
     * fires so recovery's own secureWrites cannot re-trigger it;
     * counting continues.
     */
    void arm(std::uint64_t fire_at);

    /** Stop crashing (counting state is unchanged). */
    void disarm() { armed_.reset(); }

    /** Any site should call fire()? (The macro's fast-path check.) */
    bool active() const { return counting_ || armed_.has_value(); }

    /** Total firings since reset(). */
    std::uint64_t firings() const { return firings_; }

    /** Firings of one step since reset(). */
    std::uint64_t
    firingsOf(Step s) const
    {
        return perStep_[static_cast<std::size_t>(s)];
    }

    /** Did an armed crash fire since reset()? */
    bool crashFired() const { return fired_.has_value(); }

    /** The step the armed crash fired at (if any). */
    std::optional<Step> firedStep() const { return fired_; }

    /** Every firing since reset(), in order (probe-run readback). */
    const std::vector<Step> &sequence() const { return sequence_; }

    /** Report one firing (call through DOLOS_CRASH_POINT). */
    void fire(Step s);

  private:
    Registry() = default;

    bool counting_ = false;
    std::optional<std::uint64_t> armed_;
    std::optional<Step> fired_;
    std::uint64_t firings_ = 0;
    std::array<std::uint64_t, static_cast<std::size_t>(Step::NumSteps)>
        perStep_{};
    std::vector<Step> sequence_;
};

} // namespace dolos::crashpoint

/**
 * Mark one named internal step of the persist path. Always compiled
 * (the sanitize lane runs microstep sweeps too); one branch when the
 * registry is idle.
 */
#define DOLOS_CRASH_POINT(step)                                        \
    do {                                                               \
        auto &dolos_cp_ = ::dolos::crashpoint::Registry::instance();   \
        if (dolos_cp_.active()) [[unlikely]]                           \
            dolos_cp_.fire(::dolos::crashpoint::Step::step);           \
    } while (0)

#endif // DOLOS_SIM_CRASH_POINTS_HH
