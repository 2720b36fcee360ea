/**
 * @file
 * The tag array of a set-associative LRU cache.
 *
 * One structure serves all five caches of the machine (Table 1): the
 * L1, L2 and LLC data caches and the security engine's counter and
 * tree caches. It owns the line layout, the set index, the way
 * search, the LRU victim choice and the crash reset. Each owner keeps
 * only what differs: where a block's value lives, its timing, its
 * statistics and what evicting a dirty line means.
 */

#ifndef DOLOS_MEM_TAG_ARRAY_HH
#define DOLOS_MEM_TAG_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/persist_annotations.hh"
#include "sim/types.hh"

namespace dolos
{

class TagArray
{
  public:
    struct Line
    {
        Addr tag = 0; ///< full block address
        std::uint64_t lastUse = 0;
        std::uint32_t slot = 0; ///< where the owner keeps the value
        bool valid = false;
        bool dirty = false;

        friend void
        dolosDescribeValue(std::ostream &os, const Line &l)
        {
            os << l.valid << '/' << l.dirty << '/' << l.tag << '/'
               << l.lastUse << '/' << l.slot;
        }
    };

    /**
     * Why @p size_bytes and @p assoc make no array (a zero, or a size
     * that is not a whole number of sets), or "" when they make one.
     */
    static std::string geometryError(std::uint64_t size_bytes,
                                     unsigned assoc);

    /** @p name labels the panic on a bad geometry. */
    TagArray(const std::string &name, std::uint64_t size_bytes,
             unsigned assoc);

    /** The line holding @p addr, or nullptr; no LRU side effect. */
    Line *
    find(Addr addr)
    {
        const Addr tag = blockAlign(addr);
        Line *set = &lines[setIndex(addr) * assoc];
        for (unsigned w = 0; w < assoc; ++w)
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        return nullptr;
    }

    const Line *
    find(Addr addr) const
    {
        return const_cast<TagArray *>(this)->find(addr);
    }

    /** Make @p line the most recently used of its set. */
    void touch(Line &line) { line.lastUse = ++useClock; }

    /**
     * Fill the block of @p addr, which must be absent, as the most
     * recently used line of its set. The victim is the set's least
     * recently used way, except that an empty set fills ways 1, 2,
     * ..., n-1 and then 0. Anubis numbers its shadow slots by this
     * order, so the order is part of the crash image.
     *
     * @return the line displaced; not valid when the way was empty.
     */
    Line insert(Addr addr, bool dirty, std::uint32_t slot = 0);

    /** Index (set * assoc + way) of the line holding present @p addr. */
    std::size_t slotOf(Addr addr) const;

    /** Total number of lines (sets x ways). */
    std::size_t numSlots() const { return lines.size(); }

    /**
     * Visit every valid line in set-major index order (set 0 way 0
     * first): the deterministic walk order the eADR holdup flush and
     * the software flushAll() rely on.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &line : lines)
            if (line.valid)
                fn(line);
    }

    /**
     * Invalidate every line, handing each valid one to @p dropped
     * first, and restart the LRU clock (crash). Only lines filled
     * since the last reset are visited, so a crash costs what the run
     * touched, not the array's capacity.
     */
    template <typename Fn>
    void
    reset(Fn &&dropped)
    {
        for (const std::uint32_t i : filled) {
            dropped(lines[i]);
            lines[i] = Line{};
        }
        filled.clear();
        // The LRU clock is volatile state too: a rebooted machine
        // starts at zero, and a survivor here would leak pre-crash
        // recency into post-recovery victim selection.
        useClock = 0;
    }

    /**
     * Register every member into the crash-state manifest; the lines
     * are of kind @p contents (volatile, or eADR-flushed for the data
     * caches).
     */
    persist::StateManifest stateManifest(std::string instance,
                                         persist::Kind contents) const;

  private:
    std::size_t setIndex(Addr addr) const
    {
        return (addr / blockSize) % numSets;
    }

    unsigned assoc;
    std::size_t numSets;
    std::vector<Line> lines; ///< numSets x assoc, set-major
    /** Indices of the lines filled since the last reset. */
    std::vector<std::uint32_t> filled;
    std::uint64_t useClock = 0;
};

} // namespace dolos

#endif // DOLOS_MEM_TAG_ARRAY_HH
