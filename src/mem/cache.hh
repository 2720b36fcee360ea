/**
 * @file
 * Set-associative writeback cache with LRU replacement.
 *
 * Caches are functional: they hold real block data, and dirty lines
 * that were never written back are genuinely lost on a crash — which
 * is exactly why persistent workloads flush. Timing is a fixed
 * per-level lookup latency (Table 1) plus downstream time on misses.
 */

#ifndef DOLOS_MEM_CACHE_HH
#define DOLOS_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/mem_iface.hh"
#include "sim/persist_annotations.hh"
#include "sim/stats.hh"

namespace dolos
{

/** Geometry and timing of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    Cycles latency = 2;
};

/**
 * One cache level. Reads and upstream writebacks chain to the
 * downstream MemDevice; CLWB extraction is orchestrated by the
 * hierarchy via the probe/markClean helpers.
 */
class Cache : public MemDevice
{
  public:
    Cache(const CacheParams &params, MemDevice &downstream);

    ReadResult readBlock(Addr addr, Tick now) override;
    Tick writebackBlock(Addr addr, const Block &data, Tick now) override;
    PersistTicket persistBlock(Addr addr, const Block &data,
                               Tick now) override;

    /** True if the block is present. */
    bool probe(Addr addr) const;

    /**
     * Fetch the cached copy without timing side effects.
     *
     * @return true and fills @p data / @p dirty if present.
     */
    bool peek(Addr addr, Block &data, bool &dirty) const;

    /** Update the cached copy in place if present; marks dirty. */
    bool updateIfPresent(Addr addr, const Block &data);

    /** Clear the dirty bit if the block is present. */
    void markClean(Addr addr);

    /**
     * Visit every dirty line in set-major index order (set 0 way 0
     * first) — the deterministic walk order the eADR holdup flush
     * and the software flushAll() rely on.
     */
    void forEachDirty(
        const std::function<void(Addr, const Block &)> &fn) const;

    /** Drop everything (crash / power loss). */
    void invalidateAll();

    /** Lookup latency of this level. */
    Cycles latency() const { return params.latency; }

    const CacheParams &config() const { return params; }
    stats::StatGroup &statGroup() { return stats_; }

    std::uint64_t hits() const { return statHits.value(); }
    std::uint64_t misses() const { return statMisses.value(); }
    std::uint64_t writebacks() const { return statWritebacks.value(); }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest(std::string instance) const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0; ///< full block address
        std::uint64_t lastUse = 0;
        Block data{};

        friend void
        dolosDescribeValue(std::ostream &os, const Line &l)
        {
            os << l.valid << '/' << l.dirty << '/' << l.tag << '/'
               << l.lastUse << '/' << persist::describe(l.data);
        }
    };

    std::size_t setIndex(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    /**
     * Choose a victim in the set of @p addr, writing it back
     * downstream if dirty.
     *
     * @return the victim line, invalidated and ready for refill.
     */
    Line &allocate(Addr addr, Tick now);

    CacheParams params;
    MemDevice &downstream;
    std::size_t numSets;
    // numSets x assoc, set-major. Cache contents sit in the eADR
    // persistence domain: drained to NVM by the holdup flush when the
    // machine runs in EadrSecure mode, plain volatile loss elsewhere.
    std::vector<Line> lines;
    std::uint64_t useClock = 0;

    stats::StatGroup stats_;
    stats::Scalar statHits;
    stats::Scalar statMisses;
    stats::Scalar statWritebacks;
    stats::Scalar statEvictions;
    stats::Histogram statMissLatency{100.0, 32};
};

} // namespace dolos

#endif // DOLOS_MEM_CACHE_HH
