/**
 * @file
 * Set-associative writeback cache with LRU replacement, and the store
 * of block values its levels share.
 *
 * A cache line (a TagArray line) holds only what timing reads: the
 * tag, the valid and dirty bits, the LRU stamp, and the slot of its
 * block's value in a ValueStore. Every level holding a block shares
 * that one value, so a store is seen by all of them at once and a
 * dirty line evicted from any level writes back the newest data.
 * Dirty lines that were never written back are still genuinely lost
 * on a crash — which is exactly why persistent workloads flush.
 * Timing is a fixed per-level lookup latency (Table 1) plus
 * downstream time on misses.
 */

#ifndef DOLOS_MEM_CACHE_HH
#define DOLOS_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/mem_iface.hh"
#include "mem/tag_array.hh"
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
 * The values of resident blocks: one slot per block, shared by every
 * cache level holding it. A per-slot count of those levels frees the
 * slot when the last one drops the block.
 */
class ValueStore
{
  public:
    using Slot = std::uint32_t;

    /** Room for @p max_blocks resident blocks without reallocating. */
    explicit ValueStore(std::size_t max_blocks)
    {
        slots.reserve(max_blocks);
    }

    /** A new slot holding @p data for @p addr, held by one level. */
    Slot add(Addr addr, const Block &data);

    /** One more level holds the block in @p s. */
    void hold(Slot s) { ++slots[s].levels; }

    /** One level dropped the block in @p s; the last frees the slot. */
    void
    drop(Slot s)
    {
        if (--slots[s].levels == 0)
            freeSlots.push_back(s);
    }

    Block &value(Slot s) { return slots[s].value; }
    const Block &value(Slot s) const { return slots[s].value; }

    /** Resident blocks: slots some level still holds. */
    std::size_t size() const { return slots.size() - freeSlots.size(); }

    /** Visit the address and value of every resident block. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &e : slots)
            if (e.levels > 0)
                fn(e.addr, e.value);
    }

    /** Forget every slot (crash). */
    void clear() { slots.clear(); freeSlots.clear(); }

    friend void
    dolosDescribeValue(std::ostream &os, const ValueStore &v)
    {
        os << v.size() << ':';
        v.forEach([&](Addr addr, const Block &value) {
            os << addr << ':' << persist::describe(value) << ';';
        });
    }

  private:
    struct Entry
    {
        Block value;
        Addr addr;
        std::uint8_t levels;
    };

    std::vector<Entry> slots;
    std::vector<Slot> freeSlots;
};

/**
 * One cache level. Misses fill from the level below (or, for the
 * last level, from memory) and dirty victims write back the same way;
 * CLWB and the flushes are orchestrated by the hierarchy.
 */
class Cache
{
  public:
    using Line = TagArray::Line;

    /** A timed access: the block's value slot and its ready tick. */
    struct Access
    {
        ValueStore::Slot slot;
        Tick done;
    };

    /** @p below is the next level; nullptr sends misses to @p memory. */
    Cache(const CacheParams &params, ValueStore &values, MemDevice &memory,
          Cache *below = nullptr);

    /**
     * Timed access to the block at @p addr, filling it on a miss.
     * A @p store also marks the line dirty.
     */
    Access access(Addr addr, Tick now, bool store = false);

    /** The line holding @p addr, or nullptr; no timing side effects. */
    const Line *find(Addr addr) const { return tags.find(addr); }

    /** Its value was written back: touch the line, clear dirty. */
    void clean(Addr addr);

    /** Visit every valid line in set-major index order. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        tags.forEachLine(fn);
    }

    /** Drop everything (crash / power loss). */
    void invalidateAll();

    /** Lookup latency of this level. */
    Cycles latency() const { return params.latency; }

    stats::StatGroup &statGroup() { return stats_; }

    std::uint64_t hits() const { return statHits.value(); }
    std::uint64_t misses() const { return statMisses.value(); }

    /** Append this level's crash-state manifest and its tag array's. */
    void collectStateManifests(std::vector<persist::StateManifest> &out,
                               const std::string &instance) const;

  private:
    persist::StateManifest stateManifest(std::string instance) const;

    /** A dirty block from the level above lands here. */
    Tick writeback(Addr tag, ValueStore::Slot slot, Tick now);

    /**
     * Fill @p tag, holding the value in @p slot, into its set; the
     * displaced line is written back downstream if dirty and its
     * value dropped.
     */
    void fill(Addr tag, ValueStore::Slot slot, bool dirty, Tick now);

    CacheParams params;
    ValueStore &values;
    MemDevice &memory;
    Cache *below;
    // Cache contents sit in the eADR persistence domain: drained to
    // NVM by the holdup flush when the machine runs in EadrSecure
    // mode, plain volatile loss elsewhere.
    TagArray tags;

    stats::StatGroup stats_;
    stats::Scalar statHits;
    stats::Scalar statMisses;
    stats::Scalar statWritebacks;
    stats::Scalar statEvictions;
    stats::Histogram statMissLatency{100.0, 32};
};

} // namespace dolos

#endif // DOLOS_MEM_CACHE_HH
