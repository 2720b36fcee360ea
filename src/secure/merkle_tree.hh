/**
 * @file
 * Functional 8-ary Bonsai Merkle Tree over counter blocks.
 *
 * Leaves are MAC tags of packed split-counter pages; inner nodes are
 * MAC tags over the concatenation of their eight children. Each level
 * is a dense array split into fixed-size chunks. A chunk is allocated
 * (filled with the level's memoized default tag) on its first write
 * and reads as that default until then, so a 16 GB protected region
 * costs memory only around pages actually written, and a node's
 * eight children sit contiguously, ready to be MACed in place.
 *
 * Leaf tags are installed eagerly; interior nodes are materialized
 * on demand. A leaf update only records its parent as dirty, and the
 * first read of an interior node or the root recomputes every dirty
 * path bottom-up, each shared ancestor once. A node is a pure
 * function of its children, so when the recomputation happens cannot
 * change any tag. The modeled cost of the paper's eager climb is
 * charged separately, by the security engine's timing model.
 *
 * This class is the secure processor's volatile *current* view (the
 * trusted state built from verified fetches and local updates). NVM
 * persistence of individual nodes and the on-chip persistent root
 * register are managed by the security engine.
 */

#ifndef DOLOS_SECURE_MERKLE_TREE_HH
#define DOLOS_SECURE_MERKLE_TREE_HH

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "crypto/mac_engine.hh"
#include "secure/counters.hh"
#include "sim/persist_annotations.hh"
#include "sim/types.hh"

namespace dolos
{

/** 8-ary functional hash tree. */
class MerkleTree
{
  public:
    static constexpr unsigned arity = 8;

    /**
     * Leaf updates buffered before the dirty paths are materialized
     * unread. Bounds the dirty list's memory; the tags never depend
     * on it.
     */
    static constexpr std::size_t maxDirty = 4096;

    /**
     * @param num_leaves Number of counter blocks covered.
     * @param mac Keyed MAC engine (not owned; must outlive the tree).
     */
    MerkleTree(Addr num_leaves, const crypto::MacEngine &mac);

    /** Levels including the leaf level and the root level. */
    unsigned numLevels() const { return unsigned(levelSizes.size()); }

    /** Number of nodes at @p level (level 0 = leaves). */
    Addr levelSize(unsigned level) const { return levelSizes[level]; }

    /** MAC tag of a packed counter page (leaf content hash). */
    crypto::MacTag leafTagOf(const Block &packed) const;

    /**
     * Install a new leaf tag from the packed counter page and mark
     * the path above it dirty; the path is recomputed when read.
     */
    void updateLeaf(Addr leaf_idx, const Block &packed);

    /** Current root tag. */
    crypto::MacTag root() const;

    /**
     * Current tag of (@p level, @p idx); default if untouched. An
     * interior level materializes every dirty path first.
     */
    crypto::MacTag nodeTag(unsigned level, Addr idx) const;

    /**
     * Repair an interior node by re-hashing its children (root-ward
     * re-hash, Triad-NVM style). Used when the NVM copy of the node
     * is lost to a media fault: the children's current tags pin the
     * node's only possible value. Returns the recomputed tag.
     */
    crypto::MacTag
    repairNode(unsigned level, Addr idx)
    {
        DOLOS_ASSERT(level > 0 && level < numLevels(),
                     "cannot repair level %u from children", level);
        flush();
        recomputeNode(level, idx);
        return nodeTag(level, idx);
    }

    /** The memoized default tag of an untouched node at @p level. */
    crypto::MacTag defaultTag(unsigned level) const
    {
        return defaults[level];
    }

    /**
     * Discard all state and rebuild from a full set of counter
     * pages (crash recovery). Pages absent from @p pages are
     * treated as untouched (all-zero counters).
     */
    void rebuild(const std::unordered_map<Addr, CounterPage> &pages);

    /**
     * Drop all volatile state (crash, before rebuild). Chunks keep
     * their capacity, so clearing and rebuilding cost only what the
     * run touched.
     */
    void clear();

    /** Number of nodes whose tag differs from their level's default. */
    std::size_t numStoredNodes() const;

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

  private:
    /**
     * Tags per chunk: 1 KB, a whole number of sibling groups. Small
     * enough that a sparse run (nstore-ycsb writes ~330 scattered
     * pages) fills little it does not use; large enough that the
     * chunk index of a 64K-leaf tree stays near 14 KB.
     */
    static constexpr Addr chunkNodes = 128;
    static_assert(chunkNodes % arity == 0);

    /** One level's chunks; an empty chunk reads as the default tag. */
    using Level = std::vector<std::vector<crypto::MacTag>>;

    /** Writable tag of (@p level, @p idx); allocates its chunk. */
    crypto::MacTag &slot(unsigned level, Addr idx) const;

    /** Parent tag from eight child tags. */
    crypto::MacTag hashChildren(unsigned parent_level,
                                const crypto::MacTag *children) const;

    /** Recompute one node from its children's current tags. */
    void recomputeNode(unsigned level, Addr idx) const;

    /** Install a leaf tag and record its parent as dirty. */
    void installLeaf(Addr leaf_idx, const Block &packed);

    /** Recompute every dirty node bottom-up and empty the dirty list. */
    void flush() const;

    Addr numLeaves;
    const crypto::MacEngine &mac;
    std::vector<Addr> levelSizes;           ///< per-level node counts
    std::vector<crypto::MacTag> defaults;   ///< per-level default tags
    mutable std::vector<Level> nodes;       ///< per-level chunked tags
    /// Level-1 parents of the leaves updated since the last flush.
    mutable std::vector<Addr> dirty;
};

} // namespace dolos

#endif // DOLOS_SECURE_MERKLE_TREE_HH
