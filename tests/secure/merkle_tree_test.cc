/**
 * @file
 * Merkle tree tests: structure, updates, rebuild, tamper detection.
 */

#include <gtest/gtest.h>

#include "crypto/mac_engine.hh"
#include "secure/merkle_tree.hh"
#include "sim/random.hh"

namespace
{

using namespace dolos;

struct MerkleTreeTest : ::testing::Test
{
    std::unique_ptr<crypto::MacEngine> mac = crypto::makeMacEngine(
        crypto::MacKind::SipHash24, {1, 2, 3, 4, 5, 6, 7, 8});
};

TEST_F(MerkleTreeTest, GeometryForPowerOfEight)
{
    MerkleTree t(64, *mac);
    ASSERT_EQ(t.numLevels(), 3u);
    EXPECT_EQ(t.levelSize(0), 64u);
    EXPECT_EQ(t.levelSize(1), 8u);
    EXPECT_EQ(t.levelSize(2), 1u);
}

TEST_F(MerkleTreeTest, GeometryForRaggedLeafCount)
{
    MerkleTree t(100, *mac);
    ASSERT_EQ(t.numLevels(), 4u);
    EXPECT_EQ(t.levelSize(1), 13u);
    EXPECT_EQ(t.levelSize(2), 2u);
    EXPECT_EQ(t.levelSize(3), 1u);
}

TEST_F(MerkleTreeTest, SingleLeafTreeIsJustRoot)
{
    MerkleTree t(1, *mac);
    EXPECT_EQ(t.numLevels(), 1u);
    CounterPage p;
    p.major = 1;
    t.updateLeaf(0, p);
    EXPECT_EQ(t.root(), t.leafTagOf(p));
}

TEST_F(MerkleTreeTest, EmptyTreeUsesDefaults)
{
    MerkleTree t(64, *mac);
    EXPECT_EQ(t.numStoredNodes(), 0u);
    EXPECT_EQ(t.root(), t.defaultTag(2));
    EXPECT_EQ(t.nodeTag(0, 5), t.defaultTag(0));
}

TEST_F(MerkleTreeTest, UpdateLeafChangesRoot)
{
    MerkleTree t(64, *mac);
    const auto root0 = t.root();
    CounterPage p;
    p.minors[0] = 1;
    t.updateLeaf(3, p);
    EXPECT_NE(t.root(), root0);
}

TEST_F(MerkleTreeTest, UpdateOnlyAffectsOwnPath)
{
    MerkleTree t(64, *mac);
    CounterPage p;
    p.minors[0] = 1;
    t.updateLeaf(0, p); // path: leaf 0, node (1,0)
    EXPECT_NE(t.nodeTag(1, 0), t.defaultTag(1));
    EXPECT_EQ(t.nodeTag(1, 7), t.defaultTag(1)); // untouched sibling
}

TEST_F(MerkleTreeTest, SameContentSameRoot)
{
    MerkleTree a(64, *mac), b(64, *mac);
    CounterPage p;
    p.major = 5;
    a.updateLeaf(10, p);
    b.updateLeaf(10, p);
    EXPECT_EQ(a.root(), b.root());
}

TEST_F(MerkleTreeTest, DifferentLeafPositionDifferentRoot)
{
    // Relocation: the same page content installed at another leaf
    // must produce a different root.
    MerkleTree a(64, *mac), b(64, *mac);
    CounterPage p;
    p.major = 5;
    a.updateLeaf(10, p);
    b.updateLeaf(11, p);
    EXPECT_NE(a.root(), b.root());
}

TEST_F(MerkleTreeTest, RebuildMatchesIncrementalUpdates)
{
    MerkleTree inc(512, *mac), reb(512, *mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (Addr i = 0; i < 20; ++i) {
        CounterPage p;
        p.major = i;
        p.minors[unsigned(i) % 64] = std::uint8_t(i % 128);
        inc.updateLeaf(i * 17 % 512, p);
        pages[i * 17 % 512] = p;
    }
    reb.rebuild(pages);
    EXPECT_EQ(inc.root(), reb.root());
}

TEST_F(MerkleTreeTest, RebuildAfterClearRestoresRoot)
{
    MerkleTree t(512, *mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (Addr i = 0; i < 10; ++i) {
        CounterPage p;
        p.minors[0] = std::uint8_t(i + 1);
        t.updateLeaf(i, p);
        pages[i] = p;
    }
    const auto root = t.root();
    t.clear();
    t.rebuild(pages);
    EXPECT_EQ(t.root(), root);
}

TEST_F(MerkleTreeTest, TamperedPageChangesRootOnRebuild)
{
    MerkleTree t(512, *mac);
    std::unordered_map<Addr, CounterPage> pages;
    CounterPage p;
    p.minors[7] = 3;
    t.updateLeaf(100, p);
    pages[100] = p;
    pages[100].minors[7] = 4; // attacker rolls the counter forward
    MerkleTree t2(512, *mac);
    t2.rebuild(pages);
    EXPECT_NE(t.root(), t2.root());
}

TEST_F(MerkleTreeTest, LevelTagPreventsHeightConfusion)
{
    // A node's tag at level 1 over default children differs from the
    // level-2 tag over default children: level is bound into the MAC.
    MerkleTree t(4096, *mac); // levels: 4096, 512, 64, 8, 1
    EXPECT_NE(t.defaultTag(1), t.defaultTag(2));
}

TEST_F(MerkleTreeTest, MacKeyBindsTree)
{
    auto mac2 = crypto::makeMacEngine(crypto::MacKind::SipHash24,
                                      {9, 9, 9, 9});
    MerkleTree a(64, *mac), b(64, *mac2);
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
checkEagerMatchesRebuild(const crypto::MacEngine &mac, Addr leaves,
                         unsigned updates, std::uint64_t seed)
{
    Random rng(seed);
    MerkleTree eager(leaves, mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (unsigned u = 0; u < updates; ++u) {
        // Bias towards revisiting leaves so pages are overwritten too.
        const Addr leaf = rng.below(2) && !pages.empty()
                              ? rng.below(std::min<Addr>(leaves, 16))
                              : rng.below(leaves);
        pages[leaf] = randomPage(rng);
        eager.updateLeaf(leaf, pages[leaf]);

        MerkleTree fresh(leaves, mac);
        fresh.rebuild(pages);
        Addr idx = leaf;
        for (unsigned lvl = 0; lvl < eager.numLevels(); ++lvl) {
            ASSERT_EQ(eager.nodeTag(lvl, idx), fresh.nodeTag(lvl, idx))
                << "update " << u << " level " << lvl << " node " << idx;
            idx /= MerkleTree::arity;
        }
        ASSERT_EQ(eager.root(), fresh.root()) << "update " << u;
    }
}

TEST_F(MerkleTreeTest, RandomUpdatesMatchRebuildOnRaggedTree)
{
    checkEagerMatchesRebuild(*mac, 100, 300, 11);
}

TEST_F(MerkleTreeTest, RandomUpdatesMatchRebuildAcrossChunks)
{
    // 5000 leaves span many chunks on the two lowest levels.
    checkEagerMatchesRebuild(*mac, 5000, 300, 12);
}

TEST_F(MerkleTreeTest, ClearReturnsEveryNodeToDefault)
{
    MerkleTree t(5000, *mac);
    Random rng(13);
    for (int i = 0; i < 200; ++i)
        t.updateLeaf(rng.below(5000), randomPage(rng));
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
    MerkleTree t(5000, *mac); // levels: 5000, 625, 79, 10, 2, 1
    CounterPage p;
    p.minors[1] = 1;
    t.updateLeaf(4321, p);
    EXPECT_EQ(t.numStoredNodes(), t.numLevels()); // one path
    t.updateLeaf(4322, p); // same parent: one more leaf
    EXPECT_EQ(t.numStoredNodes(), t.numLevels() + 1);
    // Writing the all-zero page back restores the default tags.
    t.updateLeaf(4321, CounterPage{});
    t.updateLeaf(4322, CounterPage{});
    EXPECT_EQ(t.numStoredNodes(), 0u);
    EXPECT_EQ(t.root(), t.defaultTag(t.numLevels() - 1));
}

TEST_F(MerkleTreeTest, RebuildOfLastPartialGroupMatchesEagerUpdates)
{
    // 100 leaves: the last level-1 group holds leaves 96..99 only,
    // and level 1 (13 nodes) ends in a partial group of its own.
    MerkleTree eager(100, *mac), reb(100, *mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (const Addr leaf : {Addr(99), Addr(96), Addr(97), Addr(3)}) {
        CounterPage p;
        p.major = leaf;
        p.minors[leaf % 64] = 7;
        pages[leaf] = p;
        eager.updateLeaf(leaf, p);
    }
    reb.rebuild(pages);
    EXPECT_EQ(reb.root(), eager.root());
    for (unsigned lvl = 0; lvl < eager.numLevels(); ++lvl)
        for (Addr idx = 0; idx < eager.levelSize(lvl); ++idx)
            EXPECT_EQ(reb.nodeTag(lvl, idx), eager.nodeTag(lvl, idx))
                << "level " << lvl << " node " << idx;
}

TEST_F(MerkleTreeTest, DeathOnOutOfRangeLeaf)
{
    MerkleTree t(64, *mac);
    CounterPage p;
    EXPECT_DEATH(t.updateLeaf(64, p), "out of range");
}

} // namespace
