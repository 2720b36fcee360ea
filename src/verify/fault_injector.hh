/**
 * @file
 * Deterministic fault and attack injection.
 *
 * The injector models the failure and adversary classes the Dolos
 * design must survive (paper §4.1, §5):
 *
 *   DataFlip         flip one NVM bit in a protected data block
 *   MacFlip          flip one NVM bit in the block's stored data MAC
 *   CounterRollback  roll an NVM counter block backwards and scrub
 *                    the Anubis shadow region so the stale image
 *                    looks like a clean shutdown
 *   BmtFlip          corrupt (or forge) a stored integrity-tree node
 *                    on a written block's path
 *   TornAdrDump      ADR power dies after K entries of the crash
 *                    dump — the rest of the WPQ flush is torn off
 *   DroppedClwb      a CLWB silently never reaches the controller
 *                    (platform/software flush bug; the class the
 *                    differential oracle exists to catch)
 *
 * Image mutations (the first four) are applied to the NVM backing
 * store at a quiesced point — between crash and recovery for a
 * cold-boot adversary, or after recovery for a bus adversary.
 * Crash-path faults (the last two) are armed ahead of time and fire
 * inside the machine. Victim selection is seeded and deterministic:
 * the same (seed, machine history) always injects the same fault,
 * which is what makes a failed fault episode reproducible from one
 * line. FaultEpisode sequences one fault around one workload run.
 */

#ifndef DOLOS_VERIFY_FAULT_INJECTOR_HH
#define DOLOS_VERIFY_FAULT_INJECTOR_HH

#include <optional>
#include <string>

#include "dolos/system.hh"
#include "sim/random.hh"
#include "verify/diff_oracle.hh"
#include "workloads/runner.hh"

namespace dolos::verify
{

/** The injectable fault classes. */
enum class FaultKind
{
    None,
    DataFlip,
    MacFlip,
    CounterRollback,
    BmtFlip,
    TornAdrDump,
    DroppedClwb,
    MediaTransient, ///< one-shot device read flip (should heal)
    MediaStuck,     ///< stuck-at cell (should quarantine, no alarm)
    MediaWriteFail, ///< dropped write pulses (retry, then quarantine)
};

/** Stable CLI name of a fault kind (and its inverse). */
const char *faultKindName(FaultKind kind);
std::optional<FaultKind> parseFaultKind(const std::string &name);

/** All injectable kinds, in a fixed order (None excluded). */
inline constexpr FaultKind allFaultKinds[] = {
    FaultKind::DataFlip,       FaultKind::MacFlip,
    FaultKind::CounterRollback, FaultKind::BmtFlip,
    FaultKind::TornAdrDump,    FaultKind::DroppedClwb,
    FaultKind::MediaTransient, FaultKind::MediaStuck,
    FaultKind::MediaWriteFail,
};

/** What an injection actually did (repro + assertions). */
struct InjectionRecord
{
    FaultKind kind = FaultKind::None;
    bool injected = false; ///< a concrete target existed
    Addr target = 0;       ///< mutated NVM address (if any)
    Addr victim = 0;       ///< data block whose read provokes the check
    unsigned bit = 0;      ///< flipped bit index (flip kinds)
    NvmRegion region = NvmRegion::Data; ///< region the target falls in
    std::string detail;
};

/**
 * Seeded fault injector bound to one System.
 */
class FaultInjector
{
  public:
    FaultInjector(System &sys, std::uint64_t seed)
        : sys(sys), rng(seed ^ 0xFA17'1E57ULL)
    {
    }

    /** @{ Crash-path faults: armed now, fire inside the machine. */
    InjectionRecord armTornAdrDump(unsigned surviving_entries);
    InjectionRecord armDroppedClwb(std::uint64_t nth);
    /** @} */

    /** @{ Media faults: armed on a seeded stored victim block; they
     *  fire on the device's timed demand paths. A metadata @p region
     *  moves the fault to the frame of that region covering the
     *  victim (its counter block, a tree node on its path, or its MAC
     *  block). */
    InjectionRecord injectMediaTransient(NvmRegion region = NvmRegion::Data);
    InjectionRecord injectMediaStuck(NvmRegion region = NvmRegion::Data);
    InjectionRecord armMediaWriteFail(unsigned failures);
    /** @} */

    /** @{ NVM image mutations (apply at a quiesced point). */
    InjectionRecord injectDataFlip();
    InjectionRecord injectMacFlip();
    InjectionRecord injectCounterRollback();
    InjectionRecord injectBmtFlip();
    /** @} */

    /**
     * Dispatch an image mutation by kind (campaign convenience);
     * crash-path kinds must be armed explicitly and return a
     * not-injected record here.
     */
    InjectionRecord inject(FaultKind kind);

    /**
     * Deterministically pick a victim among the protected-data
     * blocks currently stored in NVM.
     */
    std::optional<Addr> pickVictimDataBlock();

  private:
    /** Flip one seeded bit of the stored block at @p addr. */
    InjectionRecord flipBitAt(FaultKind kind, Addr addr);

    /**
     * A seeded media-fault target in @p region: victim, target frame
     * and bit. False (with the reason in detail) if nothing is stored.
     */
    bool pickMediaTarget(InjectionRecord &rec, NvmRegion region);

    System &sys;
    Random rng;
};

/** Outcome of one fault episode under its kind's contract. */
struct FaultVerdict
{
    bool passed = false;
    bool crashed = false;           ///< the run's own crash fired
    bool structureVerified = false; ///< the workload's own verifier
    bool attackDetected = false;
    std::uint64_t oracleViolations = 0;
    std::string note;
};

/**
 * One fault around one workload run — the only inject-and-provoke
 * sequence; the fault campaign (dolos_torture --faults / --fault) and
 * dolos-sim --inject-fault both drive it.
 *
 * arm() goes before the run and arms the crash-path kinds (torn ADR
 * dump, dropped CLWB) to fire inside the machine. strike() goes after
 * it: power-cycle to a quiesced, cold machine, apply the image or
 * media fault, and provoke the relevant check with a demand access to
 * the victim. A counter rollback is applied to the powered-off image
 * (a cold-boot adversary); a media fault on a metadata region lands
 * before the power cycle, so recovery itself must repair or cascade
 * it; everything else hits the recovered image.
 */
class FaultEpisode
{
  public:
    FaultEpisode(System &sys, FaultKind kind, std::uint64_t seed,
                 NvmRegion region = NvmRegion::Data);

    /** Before the run: arm a crash-path fault (no-op for the rest). */
    void arm();

    /**
     * After setup, before the measured transactions: land a media
     * fault on a metadata region now (no-op for the rest), so a
     * background scrub can meet it during the run. strike() then
     * power-cycles and provokes it without injecting a second one.
     */
    void strikeMetadataEarly();

    /**
     * After the run: inject and provoke. @p run_crashed says whether
     * the run's own crash fired; if not, an armed ADR tear is fired by
     * one extra power cycle so the episode still tests it.
     */
    const InjectionRecord &strike(bool run_crashed);

    /**
     * Judge the episode from the run's structural verdict and the
     * oracle sweep taken after strike():
     *
     *   none             structure verified, oracle clean, no alarm
     *   dropped CLWB     never an alarm (a software bug, not an
     *                    attack); oracle catches are the expected signal
     *   media transient  healed: clean, nothing quarantined
     *   media stuck /    quarantined, never an alarm, and every healthy
     *   write-fail       block still verifies
     *   attacks          detected, or absorbed with no divergence at all
     */
    FaultVerdict judge(const workloads::RunResult &res,
                       const OracleReport &report) const;

  private:
    /** Demand access to the victim that makes the machine notice. */
    void provoke();

    System &sys;
    FaultInjector inj;
    FaultKind kind;
    std::uint64_t seed;
    NvmRegion region;
    InjectionRecord rec;
    bool struckEarly = false; ///< strikeMetadataEarly() injected rec
};

} // namespace dolos::verify

#endif // DOLOS_VERIFY_FAULT_INJECTOR_HH
