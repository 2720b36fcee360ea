/**
 * @file
 * Split encryption counters (64-bit major + 64 x 7-bit minor).
 *
 * One counter block covers the 64 cachelines of a 4KB page and packs
 * exactly into one 64B block: 8 bytes of major counter followed by 56
 * bytes of minor counters (7 bits each). The effective per-block
 * encryption counter is major * 128 + minor; a minor-counter overflow
 * bumps the major counter, resets all minors, and requires the whole
 * page to be re-encrypted (handled by the security engine).
 */

#ifndef DOLOS_SECURE_COUNTERS_HH
#define DOLOS_SECURE_COUNTERS_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "mem/block.hh"
#include "secure/address_map.hh"
#include "sim/persist_annotations.hh"

namespace dolos
{

/** Minor counters are 7 bits wide. */
constexpr std::uint64_t minorCounterLimit = 128;

/** In-flight (volatile) image of one page's counters. */
struct CounterPage
{
    std::uint64_t major = 0;
    std::array<std::uint8_t, 64> minors{}; ///< 7-bit values

    /** Effective encryption counter for block @p idx of the page. */
    std::uint64_t
    counterOf(unsigned idx) const
    {
        return major * minorCounterLimit + minors[idx];
    }

    /** Pack into the 64B NVM representation. */
    Block pack() const;

    /** Unpack from the 64B NVM representation. */
    static CounterPage unpack(const Block &b);

    bool
    operator==(const CounterPage &o) const
    {
        return major == o.major && minors == o.minors;
    }
};

inline void
dolosDescribeValue(std::ostream &os, const CounterPage &p)
{
    os << p.major << '/' << persist::describe(p.minors);
}

/** Result of bumping a block's counter. */
struct CounterBump
{
    std::uint64_t newCounter = 0; ///< effective counter after bump
    bool pageOverflow = false;    ///< minors reset; page re-encrypt due
};

/**
 * Volatile current view of all counters (the secure processor's
 * authoritative state, partially cached / partially dirty). The NVM
 * persistent image is managed by the security engine via pack().
 */
class CounterStore
{
  public:
    /** Current effective counter of the block containing @p a. */
    std::uint64_t
    counterOf(Addr a) const
    {
        const auto it = pages.find(AddressMap::pageOf(a));
        if (it == pages.end())
            return 0;
        return it->second.counterOf(AddressMap::blockInPage(a));
    }

    /** Increment the block counter; reports minor overflow. */
    CounterBump increment(Addr a);

    /** Whole-page access (re-encryption, packing, recovery). */
    CounterPage &page(Addr page_idx) { return pages[page_idx]; }

    bool
    hasPage(Addr page_idx) const
    {
        return pages.count(page_idx) != 0;
    }

    /** Replace a page image (recovery). */
    void
    restorePage(Addr page_idx, const CounterPage &p)
    {
        pages[page_idx] = p;
    }

    /** Drop all volatile state (crash). */
    void clear() { pages.clear(); }

    const std::unordered_map<Addr, CounterPage> &all() const
    {
        return pages;
    }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

  private:
    std::unordered_map<Addr, CounterPage> pages;
};

} // namespace dolos

#endif // DOLOS_SECURE_COUNTERS_HH
