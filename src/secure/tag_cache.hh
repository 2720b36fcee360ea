/**
 * @file
 * Tag-only set-associative LRU cache for security metadata.
 *
 * The counter cache and integrity-tree cache need hit/miss timing,
 * dirty tracking, and eviction victims — but their *contents* are the
 * controller's volatile metadata structures. This cache therefore
 * tracks only presence and dirtiness; the caller performs fetches and
 * writebacks using the victim addresses it reports.
 */

#ifndef DOLOS_SECURE_TAG_CACHE_HH
#define DOLOS_SECURE_TAG_CACHE_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/persist_annotations.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dolos
{

/** Geometry of a metadata cache (Table 1 defaults in the engine). */
struct TagCacheParams
{
    std::string name = "metaCache";
    std::uint64_t sizeBytes = 128 * 1024;
    unsigned assoc = 4;
};

/** A dirty victim evicted during insertion. */
struct EvictedTag
{
    Addr addr;
};

/** Tag-only metadata cache. */
class TagCache
{
  public:
    explicit TagCache(const TagCacheParams &params);

    /** True (and LRU-touch) if @p addr is cached. */
    bool lookup(Addr addr);

    /** Presence check without LRU side effects. */
    bool contains(Addr addr) const;

    /**
     * Insert @p addr (must not be present). If a dirty victim is
     * displaced, it is returned so the caller can write it back.
     */
    std::optional<EvictedTag> insert(Addr addr, bool dirty);

    /** Mark a present entry dirty (no-op when absent). */
    void markDirty(Addr addr);

    /** Clear an entry's dirty bit (writeback completed). */
    void markClean(Addr addr);

    /** True if present and dirty. */
    bool isDirty(Addr addr) const;

    /**
     * Linear slot index (set * assoc + way) of a present entry, used
     * by Anubis to mirror the cache geometry in its shadow table.
     * The entry must be present.
     */
    std::size_t slotOf(Addr addr) const;

    /** Total number of slots (sets x ways). */
    std::size_t numSlots() const { return lines.size(); }

    /** Invoke @p fn for every dirty entry (crash bookkeeping). */
    void forEachDirty(const std::function<void(Addr)> &fn) const;

    /** Drop everything (crash). */
    void invalidateAll();

    std::uint64_t hits() const { return statHits.value(); }
    std::uint64_t misses() const { return statMisses.value(); }
    std::uint64_t dirtyEvictions() const { return statDirtyEv.value(); }
    std::size_t numEntries() const { return entries; }
    stats::StatGroup &statGroup() { return stats_; }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest(std::string instance) const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;

        friend void
        dolosDescribeValue(std::ostream &os, const Line &l)
        {
            os << l.valid << '/' << l.dirty << '/' << l.tag << '/'
               << l.lastUse;
        }
    };

    std::size_t setIndex(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    TagCacheParams params;
    std::size_t numSets;
    std::vector<Line> lines;
    std::uint64_t useClock = 0;
    std::size_t entries = 0;

    stats::StatGroup stats_;
    stats::Scalar statHits;
    stats::Scalar statMisses;
    stats::Scalar statDirtyEv;
};

} // namespace dolos

#endif // DOLOS_SECURE_TAG_CACHE_HH
