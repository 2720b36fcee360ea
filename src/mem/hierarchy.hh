/**
 * @file
 * Three-level cache hierarchy with CLWB support (core-facing).
 *
 * Stores allocate into L1. The hierarchy owns the ValueStore every
 * level shares, so a block has one value however many levels hold
 * it. CLWB marks every copy clean and sends that value down the
 * memory controller's persist path.
 */

#ifndef DOLOS_MEM_HIERARCHY_HH
#define DOLOS_MEM_HIERARCHY_HH

#include "mem/cache.hh"
#include "mem/mem_iface.hh"
#include "sim/persist_annotations.hh"
#include "sim/stats.hh"

namespace dolos
{

/**
 * Memory-controller-facing interface required by the hierarchy: the
 * plain MemDevice operations plus a query for the persist tick of an
 * in-flight write (needed when CLWB targets a line that was already
 * evicted and is still travelling through the controller).
 */
class PersistController : public MemDevice
{
  public:
    /**
     * If a write to @p addr is in flight but not yet in the
     * persistence domain, return the tick at which it will be
     * persisted; otherwise return @p now.
     */
    virtual Tick pendingPersistTick(Addr addr, Tick now) = 0;
};

/** Cache geometry for all three levels (Table 1 defaults). */
struct HierarchyParams
{
    CacheParams l1{"l1", 32 * 1024, 2, 2};
    CacheParams l2{"l2", 512 * 1024, 8, 20};
    CacheParams llc{"llc", 8 * 1024 * 1024, 16, 32};

    /**
     * eADR persistence domain: dirty cache lines survive power
     * failure (the holdup flush drains them), so CLWB becomes a
     * completed no-op — the line persists where it sits. Set by
     * System when cfg.mode == EadrSecure; data then reaches the
     * controller only through natural writebacks.
     */
    bool eadrDomain = false;
};

/** One dirty cache line captured for the eADR holdup flush. */
struct DirtyLine
{
    Addr addr = 0;
    Block data{};
};

/**
 * Core-facing cache hierarchy.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const HierarchyParams &params, PersistController &mc);

    /**
     * Timed load of @p size bytes at @p addr (may span blocks).
     *
     * @return completion tick.
     */
    Tick load(Addr addr, void *out, unsigned size, Tick now);

    /** Timed store of @p size bytes (write-allocate into L1). */
    Tick store(Addr addr, const void *src, unsigned size, Tick now);

    /**
     * CLWB of the block containing @p addr: push its value to the
     * memory controller's persist path, keeping (clean) copies
     * cached.
     */
    PersistTicket clwb(Addr addr, Tick now);

    /** Drop all cached state (crash). */
    void invalidateAll();

    /**
     * Capture every dirty line for the eADR holdup flush: L1, then
     * L2, then LLC, each level in set-major index order; a block
     * already captured at an upper level is skipped. The walk is
     * deterministic, which is what makes flush microsteps replayable
     * crash points.
     */
    void collectDirtyLines(std::vector<DirtyLine> &out) const;

    /**
     * Software flush: push every dirty line through the controller's
     * persist path (what a CLWB loop does on an ADR machine) and
     * mark all copies clean. Maintenance/test helper for quiescing a
     * machine; pairs with the controller's drainTo().
     */
    void flushAll(Tick now);

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Cache &llc() { return llc_; }
    const ValueStore &valueStore() const { return values; }
    stats::StatGroup &statGroup() { return stats_; }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

  private:
    HierarchyParams params;
    PersistController &mc;
    // One value per resident block, shared by every level holding it;
    // in the eADR persistence domain like the lines that index it.
    ValueStore values;
    Cache llc_;
    Cache l2_;
    Cache l1_;

    stats::StatGroup stats_;
    stats::Scalar statLoads;
    stats::Scalar statStores;
    stats::Scalar statClwbs;
    stats::Scalar statClwbMisses;
};

} // namespace dolos

#endif // DOLOS_MEM_HIERARCHY_HH
