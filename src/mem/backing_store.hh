/**
 * @file
 * Sparse functional backing store for a simulated address space.
 *
 * Holds real bytes at 64B-block granularity; untouched blocks read as
 * zero. Used both for the NVM data array (ciphertext at rest) and for
 * metadata regions.
 */

#ifndef DOLOS_MEM_BACKING_STORE_HH
#define DOLOS_MEM_BACKING_STORE_HH

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/block.hh"
#include "sim/logging.hh"
#include "sim/persist_annotations.hh"
#include "sim/types.hh"

namespace dolos
{

/** Sparse block-granular byte store. */
class BackingStore
{
  public:
    /** Read the block containing nothing yet as all-zeros. */
    Block
    read(Addr addr) const
    {
        DOLOS_ASSERT(isBlockAligned(addr), "unaligned read 0x%llx",
                     (unsigned long long)addr);
        const auto it = blocks.find(addr);
        return it == blocks.end() ? zeroBlock() : it->second;
    }

    /** Overwrite a whole block. */
    void
    write(Addr addr, const Block &data)
    {
        DOLOS_ASSERT(isBlockAligned(addr), "unaligned write 0x%llx",
                     (unsigned long long)addr);
        blocks[addr] = data;
    }

    /** True if the block was ever written. */
    bool
    contains(Addr addr) const
    {
        return blocks.count(blockAlign(addr)) != 0;
    }

    /** Number of blocks ever written. */
    std::size_t numBlocks() const { return blocks.size(); }

    /** Upper bound for a walk over the whole store. */
    static constexpr Addr allAddrs = ~Addr(0);

    /**
     * Call @p visit(addr, block) for every stored block in [@p lo,
     * @p hi), in ascending address order. This is the store's only
     * enumeration, so no caller can depend on hash-table order. The
     * visitor may overwrite blocks (stored or not) but not clear().
     */
    template <typename Visit>
    void
    walk(Addr lo, Addr hi, Visit &&visit) const
    {
        std::vector<std::pair<Addr, const Block *>> found;
        // Sorted below, before anything is visited.
        for (const auto &[addr, block] : blocks) // dolos-lint: allow(determinism)
            if (addr >= lo && addr < hi)
                found.emplace_back(addr, &block);
        std::sort(found.begin(), found.end());
        for (const auto &[addr, block] : found)
            visit(addr, *block);
    }

    void clear() { blocks.clear(); }

    /**
     * Register every member into the crash-state manifest. Blocks
     * for which @p exclude returns true are left out of the snapshot
     * (regions the crash path legitimately rewrites, e.g. the ADR
     * WPQ dump); pass nullptr to snapshot the whole image.
     */
    persist::StateManifest
    stateManifest(std::function<bool(Addr)> exclude) const;

  private:
    std::unordered_map<Addr, Block> blocks;
};

} // namespace dolos

#endif // DOLOS_MEM_BACKING_STORE_HH
