/**
 * @file
 * In-order timing core with persistent-memory primitives.
 *
 * The core executes workload operations synchronously, tracking its
 * own clock. Loads block; stores complete into L1 (write-allocate,
 * writeback); CLWB issues an asynchronous persist whose ticket is
 * tracked until the next SFENCE; SFENCE stalls until every
 * outstanding CLWB has reached the persistence domain — where the
 * persistence domain begins is decided by the memory controller mode,
 * which is precisely what the paper varies.
 */

#ifndef DOLOS_CPU_CORE_HH
#define DOLOS_CPU_CORE_HH

#include <optional>
#include <vector>

#include "mem/hierarchy.hh"
#include "sim/persist_annotations.hh"
#include "sim/stats.hh"

namespace dolos
{

namespace stats { class StatSampler; }

/**
 * Passive observer of the core's architectural memory operations.
 *
 * Observers see every load (with the returned data), store, CLWB,
 * SFENCE and power failure in program order, which is exactly the
 * information an in-order reference machine needs (src/verify's
 * GoldenModel). Callbacks must not drive the core re-entrantly.
 */
class CoreObserver
{
  public:
    virtual ~CoreObserver() = default;

    virtual void onLoad(Addr, const void *, unsigned) {}
    virtual void onStore(Addr, const void *, unsigned) {}
    virtual void onClwb(Addr) {}
    virtual void onSfence() {}
    virtual void onCrash() {}

    /**
     * The machine declared @p addr's block unrecoverably lost
     * (media quarantine, or an eADR holdup flush that ran out of
     * energy before covering it). The block reads as zero from now
     * on; a reference machine must stop expecting its old contents.
     */
    virtual void onBlockLost(Addr) {}
};

/** In-order core bound to a hierarchy. */
class SimpleCore
{
  public:
    explicit SimpleCore(CacheHierarchy &hierarchy);

    /** Attach (or detach, with nullptr) an operation observer. */
    void setObserver(CoreObserver *obs) { observer = obs; }

    /** The attached observer, if any (the runner notifies it of
     *  declared block loss after a crash+recovery). */
    CoreObserver *currentObserver() const { return observer; }

    /**
     * Attach (or detach, with nullptr) an interval stats sampler.
     * The core polls it after every clock advance; the sampler only
     * reads stat values, so attaching one changes no simulated
     * timing (System::attachStatSampler wires the whole machine).
     */
    void setStatSampler(stats::StatSampler *s) { sampler_ = s; }

    /**
     * Fault injection: silently drop the @p nth next CLWB (0 = the
     * very next one). The dropped flush is still reported to the
     * observer — the *program* issued it; losing its effect is the
     * fault — and still counts as an executed instruction.
     */
    void armClwbDrop(std::uint64_t nth) { clwbDropIn = nth; }

    /**
     * Power failure: outstanding persist tickets die with the core's
     * volatile state; the observer is told so reference machines can
     * fork their admissible-state sets.
     */
    void notifyCrash();

    /** Model @p n cycles of non-memory work (n instructions). */
    void compute(Cycles n);

    /** Blocking load of @p size bytes. */
    void load(Addr addr, void *out, unsigned size);

    /** Store of @p size bytes (completes into L1). */
    void store(Addr addr, const void *src, unsigned size);

    /** Issue CLWB for the block containing @p addr (asynchronous). */
    void clwb(Addr addr);

    /** Stall until all outstanding CLWBs are persisted. */
    void sfence();

    /** Current core clock. */
    Tick now() const { return clock; }

    /** Instructions executed (compute cycles + memory ops). */
    std::uint64_t instructions() const { return statInstructions.value(); }

    /** Cycles this core spent stalled on fences. */
    std::uint64_t
    fenceStallCycles() const
    {
        return statFenceStall.value();
    }

    std::uint64_t fences() const { return statFences.value(); }
    std::uint64_t clwbs() const { return statClwbs.value(); }

    /** Cycles per instruction so far. */
    double
    cpi() const
    {
        const auto insts = instructions();
        return insts ? double(clock) / double(insts) : 0.0;
    }

    stats::StatGroup &statGroup() { return stats_; }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

  private:
    /** Poll the attached sampler (out of line: keeps ops slim). */
    void pollSampler();

    CacheHierarchy &hierarchy;
    Tick clock = 0;
    std::vector<PersistTicket> outstanding;
    CoreObserver *observer = nullptr;
    stats::StatSampler *sampler_ = nullptr;
    std::optional<std::uint64_t> clwbDropIn; ///< armed CLWB drop

    stats::StatGroup stats_;
    stats::Scalar statInstructions;
    stats::Scalar statLoads;
    stats::Scalar statStores;
    stats::Scalar statClwbs;
    stats::Scalar statFences;
    stats::Scalar statFenceStall;
    stats::Average statFenceWait;
};

} // namespace dolos

#endif // DOLOS_CPU_CORE_HH
