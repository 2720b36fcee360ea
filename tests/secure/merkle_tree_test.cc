/**
 * @file
 * Merkle tree tests: structure, updates, rebuild, tamper detection,
 * and deferred materialization against an eager-climb oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/mac_engine.hh"
#include "secure/merkle_tree.hh"
#include "sim/random.hh"

namespace
{

using namespace dolos;

struct MerkleTreeTest : ::testing::Test
{
    crypto::MacEngine mac{{1, 2, 3, 4, 5, 6, 7, 8}};
};

TEST_F(MerkleTreeTest, GeometryForPowerOfEight)
{
    MerkleTree t(64, mac);
    ASSERT_EQ(t.numLevels(), 3u);
    EXPECT_EQ(t.levelSize(0), 64u);
    EXPECT_EQ(t.levelSize(1), 8u);
    EXPECT_EQ(t.levelSize(2), 1u);
}

TEST_F(MerkleTreeTest, GeometryForRaggedLeafCount)
{
    MerkleTree t(100, mac);
    ASSERT_EQ(t.numLevels(), 4u);
    EXPECT_EQ(t.levelSize(1), 13u);
    EXPECT_EQ(t.levelSize(2), 2u);
    EXPECT_EQ(t.levelSize(3), 1u);
}

TEST_F(MerkleTreeTest, SingleLeafTreeIsJustRoot)
{
    MerkleTree t(1, mac);
    EXPECT_EQ(t.numLevels(), 1u);
    CounterPage p;
    p.major = 1;
    t.updateLeaf(0, p.pack());
    EXPECT_EQ(t.root(), t.leafTagOf(p.pack()));
}

TEST_F(MerkleTreeTest, EmptyTreeUsesDefaults)
{
    MerkleTree t(64, mac);
    EXPECT_EQ(t.numStoredNodes(), 0u);
    EXPECT_EQ(t.root(), t.defaultTag(2));
    EXPECT_EQ(t.nodeTag(0, 5), t.defaultTag(0));
}

TEST_F(MerkleTreeTest, UpdateLeafChangesRoot)
{
    MerkleTree t(64, mac);
    const auto root0 = t.root();
    CounterPage p;
    p.minors[0] = 1;
    t.updateLeaf(3, p.pack());
    EXPECT_NE(t.root(), root0);
}

TEST_F(MerkleTreeTest, UpdateOnlyAffectsOwnPath)
{
    MerkleTree t(64, mac);
    CounterPage p;
    p.minors[0] = 1;
    t.updateLeaf(0, p.pack()); // path: leaf 0, node (1,0)
    EXPECT_NE(t.nodeTag(1, 0), t.defaultTag(1));
    EXPECT_EQ(t.nodeTag(1, 7), t.defaultTag(1)); // untouched sibling
}

TEST_F(MerkleTreeTest, SameContentSameRoot)
{
    MerkleTree a(64, mac), b(64, mac);
    CounterPage p;
    p.major = 5;
    a.updateLeaf(10, p.pack());
    b.updateLeaf(10, p.pack());
    EXPECT_EQ(a.root(), b.root());
}

TEST_F(MerkleTreeTest, DifferentLeafPositionDifferentRoot)
{
    // Relocation: the same page content installed at another leaf
    // must produce a different root.
    MerkleTree a(64, mac), b(64, mac);
    CounterPage p;
    p.major = 5;
    a.updateLeaf(10, p.pack());
    b.updateLeaf(11, p.pack());
    EXPECT_NE(a.root(), b.root());
}

TEST_F(MerkleTreeTest, RebuildMatchesIncrementalUpdates)
{
    MerkleTree inc(512, mac), reb(512, mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (Addr i = 0; i < 20; ++i) {
        CounterPage p;
        p.major = i;
        p.minors[unsigned(i) % 64] = std::uint8_t(i % 128);
        inc.updateLeaf(i * 17 % 512, p.pack());
        pages[i * 17 % 512] = p;
    }
    reb.rebuild(pages);
    EXPECT_EQ(inc.root(), reb.root());
}

TEST_F(MerkleTreeTest, RebuildAfterClearRestoresRoot)
{
    MerkleTree t(512, mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (Addr i = 0; i < 10; ++i) {
        CounterPage p;
        p.minors[0] = std::uint8_t(i + 1);
        t.updateLeaf(i, p.pack());
        pages[i] = p;
    }
    const auto root = t.root();
    t.clear();
    t.rebuild(pages);
    EXPECT_EQ(t.root(), root);
}

TEST_F(MerkleTreeTest, TamperedPageChangesRootOnRebuild)
{
    MerkleTree t(512, mac);
    std::unordered_map<Addr, CounterPage> pages;
    CounterPage p;
    p.minors[7] = 3;
    t.updateLeaf(100, p.pack());
    pages[100] = p;
    pages[100].minors[7] = 4; // attacker rolls the counter forward
    MerkleTree t2(512, mac);
    t2.rebuild(pages);
    EXPECT_NE(t.root(), t2.root());
}

TEST_F(MerkleTreeTest, LevelTagPreventsHeightConfusion)
{
    // A node's tag at level 1 over default children differs from the
    // level-2 tag over default children: level is bound into the MAC.
    MerkleTree t(4096, mac); // levels: 4096, 512, 64, 8, 1
    EXPECT_NE(t.defaultTag(1), t.defaultTag(2));
}

TEST_F(MerkleTreeTest, MacKeyBindsTree)
{
    const crypto::MacEngine mac2{{9, 9, 9, 9}};
    MerkleTree a(64, mac), b(64, mac2);
    EXPECT_NE(a.root(), b.root());
}

/** A page with a few counters drawn from @p rng. */
CounterPage
randomPage(Random &rng)
{
    CounterPage p;
    p.major = rng.below(4);
    for (int i = 0; i < 3; ++i)
        p.minors[rng.below(64)] = std::uint8_t(rng.below(128));
    return p;
}

/**
 * Apply @p updates random leaf writes to a @p leaves-leaf tree; after
 * each, every node on the written path and the root must equal a
 * fresh tree rebuilt from the same pages.
 */
void
checkIncrementalMatchesRebuild(const crypto::MacEngine &mac, Addr leaves,
                               unsigned updates, std::uint64_t seed)
{
    Random rng(seed);
    MerkleTree inc(leaves, mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (unsigned u = 0; u < updates; ++u) {
        // Bias towards revisiting leaves so pages are overwritten too.
        const Addr leaf = rng.below(2) && !pages.empty()
                              ? rng.below(std::min<Addr>(leaves, 16))
                              : rng.below(leaves);
        pages[leaf] = randomPage(rng);
        inc.updateLeaf(leaf, pages[leaf].pack());

        MerkleTree fresh(leaves, mac);
        fresh.rebuild(pages);
        Addr idx = leaf;
        for (unsigned lvl = 0; lvl < inc.numLevels(); ++lvl) {
            ASSERT_EQ(inc.nodeTag(lvl, idx), fresh.nodeTag(lvl, idx))
                << "update " << u << " level " << lvl << " node " << idx;
            idx /= MerkleTree::arity;
        }
        ASSERT_EQ(inc.root(), fresh.root()) << "update " << u;
    }
}

TEST_F(MerkleTreeTest, RandomUpdatesMatchRebuildOnRaggedTree)
{
    checkIncrementalMatchesRebuild(mac, 100, 300, 11);
}

TEST_F(MerkleTreeTest, RandomUpdatesMatchRebuildAcrossChunks)
{
    // 5000 leaves span many chunks on the two lowest levels.
    checkIncrementalMatchesRebuild(mac, 5000, 300, 12);
}

TEST_F(MerkleTreeTest, ClearReturnsEveryNodeToDefault)
{
    MerkleTree t(5000, mac);
    Random rng(13);
    for (int i = 0; i < 200; ++i)
        t.updateLeaf(rng.below(5000), randomPage(rng).pack());
    ASSERT_GT(t.numStoredNodes(), 0u);
    t.clear();
    EXPECT_EQ(t.numStoredNodes(), 0u);
    for (unsigned lvl = 0; lvl < t.numLevels(); ++lvl)
        for (Addr idx = 0; idx < t.levelSize(lvl); ++idx)
            ASSERT_EQ(t.nodeTag(lvl, idx), t.defaultTag(lvl))
                << "level " << lvl << " node " << idx;
}

TEST_F(MerkleTreeTest, StoredNodesCountsNonDefaultTags)
{
    MerkleTree t(5000, mac); // levels: 5000, 625, 79, 10, 2, 1
    CounterPage p;
    p.minors[1] = 1;
    t.updateLeaf(4321, p.pack());
    EXPECT_EQ(t.numStoredNodes(), t.numLevels()); // one path
    t.updateLeaf(4322, p.pack()); // same parent: one more leaf
    EXPECT_EQ(t.numStoredNodes(), t.numLevels() + 1);
    // Writing the all-zero page back restores the default tags.
    t.updateLeaf(4321, CounterPage{}.pack());
    t.updateLeaf(4322, CounterPage{}.pack());
    EXPECT_EQ(t.numStoredNodes(), 0u);
    EXPECT_EQ(t.root(), t.defaultTag(t.numLevels() - 1));
}

TEST_F(MerkleTreeTest, RebuildOfLastPartialGroupMatchesEagerUpdates)
{
    // 100 leaves: the last level-1 group holds leaves 96..99 only,
    // and level 1 (13 nodes) ends in a partial group of its own.
    MerkleTree eager(100, mac), reb(100, mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (const Addr leaf : {Addr(99), Addr(96), Addr(97), Addr(3)}) {
        CounterPage p;
        p.major = leaf;
        p.minors[leaf % 64] = 7;
        pages[leaf] = p;
        eager.updateLeaf(leaf, p.pack());
    }
    reb.rebuild(pages);
    EXPECT_EQ(reb.root(), eager.root());
    for (unsigned lvl = 0; lvl < eager.numLevels(); ++lvl)
        for (Addr idx = 0; idx < eager.levelSize(lvl); ++idx)
            EXPECT_EQ(reb.nodeTag(lvl, idx), eager.nodeTag(lvl, idx))
                << "level " << lvl << " node " << idx;
}

/**
 * The per-write eager climb, kept as an oracle for the deferred
 * tree: dense levels, and every leaf write re-hashes its whole path
 * to the root before returning.
 */
class EagerOracle
{
  public:
    EagerOracle(Addr leaves, const crypto::MacEngine &mac) : mac(mac)
    {
        Addr n = leaves;
        sizes.push_back(n);
        while (n > 1) {
            n = (n + MerkleTree::arity - 1) / MerkleTree::arity;
            sizes.push_back(n);
        }
        const Block zero = CounterPage{}.pack();
        defaults.push_back(mac.compute(zero.data(), zero.size()));
        for (unsigned lvl = 1; lvl < sizes.size(); ++lvl) {
            crypto::MacTag children[MerkleTree::arity];
            std::fill(std::begin(children), std::end(children),
                      defaults[lvl - 1]);
            defaults.push_back(hashChildren(lvl, children));
        }
        clear();
    }

    void
    clear()
    {
        levels.assign(sizes.size(), {});
        for (unsigned lvl = 0; lvl < sizes.size(); ++lvl) {
            // Pad to whole sibling groups; the padding stays default.
            const Addr padded = (sizes[lvl] + MerkleTree::arity - 1) /
                                MerkleTree::arity * MerkleTree::arity;
            levels[lvl].assign(padded, defaults[lvl]);
        }
    }

    void
    updateLeaf(Addr leaf, const CounterPage &page)
    {
        const Block packed = page.pack();
        levels[0][leaf] = mac.compute(packed.data(), packed.size());
        Addr idx = leaf;
        for (unsigned lvl = 1; lvl < sizes.size(); ++lvl) {
            idx /= MerkleTree::arity;
            levels[lvl][idx] = hashChildren(
                lvl, &levels[lvl - 1][idx * MerkleTree::arity]);
        }
    }

    void
    rebuild(const std::unordered_map<Addr, CounterPage> &pages)
    {
        clear();
        for (const auto &[leaf, page] : pages)
            updateLeaf(leaf, page);
    }

    unsigned numLevels() const { return unsigned(sizes.size()); }
    Addr levelSize(unsigned lvl) const { return sizes[lvl]; }
    crypto::MacTag
    tag(unsigned lvl, Addr idx) const
    {
        return levels[lvl][idx];
    }
    crypto::MacTag root() const { return levels.back()[0]; }
    crypto::MacTag defaultTag(unsigned lvl) const { return defaults[lvl]; }

    std::size_t
    numStoredNodes() const
    {
        std::size_t n = 0;
        for (unsigned lvl = 0; lvl < sizes.size(); ++lvl)
            n += std::size_t(std::count_if(
                levels[lvl].begin(), levels[lvl].end(),
                [&](const crypto::MacTag &t) { return t != defaults[lvl]; }));
        return n;
    }

  private:
    crypto::MacTag
    hashChildren(unsigned lvl, const crypto::MacTag *children) const
    {
        const std::uint8_t level = std::uint8_t(lvl);
        return mac.computeParts(
            {{&level, 1},
             {children, MerkleTree::arity * sizeof(crypto::MacTag)}});
    }

    const crypto::MacEngine &mac;
    std::vector<Addr> sizes;
    std::vector<crypto::MacTag> defaults;
    std::vector<std::vector<crypto::MacTag>> levels;
};

/** Every node of @p tree equals the oracle's. */
void
expectWholeTreeMatches(const MerkleTree &tree, const EagerOracle &oracle,
                       const char *when)
{
    for (unsigned lvl = 0; lvl < oracle.numLevels(); ++lvl)
        for (Addr idx = 0; idx < oracle.levelSize(lvl); ++idx)
            ASSERT_EQ(tree.nodeTag(lvl, idx), oracle.tag(lvl, idx))
                << when << ": level " << lvl << " node " << idx;
    ASSERT_EQ(tree.root(), oracle.root()) << when;
}

/**
 * Random leaf updates on a @p leaves-leaf tree, interleaved with
 * every read and reset the tree offers; each result must equal the
 * eager oracle at the step it is taken.
 */
void
checkDeferredMatchesEager(const crypto::MacEngine &mac, Addr leaves,
                          unsigned steps, std::uint64_t seed)
{
    Random rng(seed);
    MerkleTree tree(leaves, mac);
    EagerOracle oracle(leaves, mac);
    ASSERT_EQ(tree.numLevels(), oracle.numLevels());
    for (unsigned lvl = 0; lvl < oracle.numLevels(); ++lvl) {
        ASSERT_EQ(tree.levelSize(lvl), oracle.levelSize(lvl));
        ASSERT_EQ(tree.defaultTag(lvl), oracle.defaultTag(lvl));
    }
    std::unordered_map<Addr, CounterPage> pages;
    Addr last_leaf = 0;
    for (unsigned step = 0; step < steps; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 55) {
            // Bias towards a few hot leaves so dirty paths repeat.
            const Addr leaf = rng.below(2)
                                  ? rng.below(std::min<Addr>(leaves, 24))
                                  : rng.below(leaves);
            pages[leaf] = randomPage(rng);
            tree.updateLeaf(leaf, pages[leaf].pack());
            oracle.updateLeaf(leaf, pages[leaf]);
            last_leaf = leaf;
            // Leaf tags stay eager.
            ASSERT_EQ(tree.nodeTag(0, leaf), oracle.tag(0, leaf))
                << "step " << step;
        } else if (op < 75) {
            // One node at every level: on the last written path, or
            // anywhere.
            const bool on_path = rng.below(2);
            Addr idx = last_leaf;
            for (unsigned lvl = 0; lvl < oracle.numLevels(); ++lvl) {
                const Addr at =
                    on_path ? idx : rng.below(oracle.levelSize(lvl));
                ASSERT_EQ(tree.nodeTag(lvl, at), oracle.tag(lvl, at))
                    << "step " << step << " level " << lvl << " node "
                    << at;
                idx /= MerkleTree::arity;
            }
        } else if (op < 83) {
            ASSERT_EQ(tree.root(), oracle.root()) << "step " << step;
        } else if (op < 90) {
            if (oracle.numLevels() < 2)
                continue;
            const unsigned lvl =
                1 + unsigned(rng.below(oracle.numLevels() - 1));
            const Addr idx = rng.below(2)
                                 ? last_leaf >> (3 * lvl)
                                 : rng.below(oracle.levelSize(lvl));
            ASSERT_EQ(tree.repairNode(lvl, idx), oracle.tag(lvl, idx))
                << "step " << step << " level " << lvl << " node " << idx;
        } else if (op < 96) {
            ASSERT_EQ(tree.numStoredNodes(), oracle.numStoredNodes())
                << "step " << step;
        } else if (op < 97) {
            tree.clear();
            oracle.clear();
            pages.clear();
        } else {
            // Recovery: rebuild from a random subset of the pages.
            std::unordered_map<Addr, CounterPage> kept;
            for (const auto &[leaf, page] : pages)
                if (rng.below(4) != 0)
                    kept.emplace(leaf, page);
            pages = std::move(kept);
            tree.rebuild(pages);
            oracle.rebuild(pages);
        }
    }
    expectWholeTreeMatches(tree, oracle, "final");
}

TEST_F(MerkleTreeTest, DeferredMatchesEagerOnRaggedTree)
{
    checkDeferredMatchesEager(mac, 100, 3000, 21);
}

TEST_F(MerkleTreeTest, DeferredMatchesEagerAcrossChunks)
{
    checkDeferredMatchesEager(mac, 5000, 3000, 22);
}

TEST_F(MerkleTreeTest, DeferredMatchesEagerAcrossFlushBound)
{
    // Enough unread updates to fill the dirty list twice over: the
    // bound-triggered flushes and the final on-read flush must leave
    // every node where the eager climb puts it.
    for (const Addr leaves : {Addr(100), Addr(5000)}) {
        Random rng(23 + leaves);
        MerkleTree tree(leaves, mac);
        EagerOracle oracle(leaves, mac);
        for (std::size_t u = 0; u < 2 * MerkleTree::maxDirty + 123;
             ++u) {
            const Addr leaf = rng.below(leaves);
            const CounterPage page = randomPage(rng);
            tree.updateLeaf(leaf, page.pack());
            oracle.updateLeaf(leaf, page);
        }
        expectWholeTreeMatches(tree, oracle, "after unread updates");
        ASSERT_EQ(tree.numStoredNodes(), oracle.numStoredNodes());
    }
}

TEST_F(MerkleTreeTest, DeathOnOutOfRangeLeaf)
{
    MerkleTree t(64, mac);
    CounterPage p;
    EXPECT_DEATH(t.updateLeaf(64, p.pack()), "out of range");
}

} // namespace
