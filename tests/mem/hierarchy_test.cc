/**
 * @file
 * Cache hierarchy tests: load/store semantics, CLWB, crash loss, and
 * the one value every level holding a block shares.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"
#include "tests/mem/fake_memory.hh"

namespace
{

using namespace dolos;
using dolos::test::FakeMemory;

HierarchyParams
tinyHierarchy()
{
    HierarchyParams p;
    p.l1 = {"l1", 512, 2, 2};
    p.l2 = {"l2", 2048, 4, 20};
    p.llc = {"llc", 8192, 8, 32};
    return p;
}

struct HierarchyTest : ::testing::Test
{
    FakeMemory mem{600};
    CacheHierarchy h{tinyHierarchy(), mem};
};

TEST_F(HierarchyTest, StoreThenLoadRoundTrips)
{
    const std::uint64_t v = 0xABCDEF0123456789ULL;
    h.store(0x100, &v, sizeof(v), 0);
    std::uint64_t out = 0;
    h.load(0x100, &out, sizeof(out), 100);
    EXPECT_EQ(out, v);
}

TEST_F(HierarchyTest, LoadMissGoesToMemoryOnce)
{
    std::uint8_t buf[8];
    h.load(0x200, buf, 8, 0);
    h.load(0x208, buf, 8, 1000);
    EXPECT_EQ(mem.numReads, 1u);
}

TEST_F(HierarchyTest, L1HitLatency)
{
    std::uint8_t buf[8];
    h.load(0x0, buf, 8, 0);              // miss, fills
    const Tick t = h.load(0x0, buf, 8, 10000);
    EXPECT_EQ(t, 10000u + 2u);           // L1 latency only
}

TEST_F(HierarchyTest, MissLatencyIncludesAllLevels)
{
    std::uint8_t buf[8];
    const Tick t = h.load(0x0, buf, 8, 0);
    // L1 (2) + L2 (20) + LLC (32) + memory (600).
    EXPECT_EQ(t, 2u + 20u + 32u + 600u);
}

TEST_F(HierarchyTest, CrossBlockLoadTouchesBothBlocks)
{
    std::uint16_t v = 0xBEEF;
    h.store(0x3E, &v, 2, 0); // spans blocks 0x00 and 0x40
    std::uint16_t out = 0;
    h.load(0x3E, &out, 2, 1000);
    EXPECT_EQ(out, 0xBEEF);
}

TEST_F(HierarchyTest, ClwbPersistsNewestData)
{
    const std::uint64_t v = 42;
    h.store(0x80, &v, sizeof(v), 0);
    const PersistTicket t = h.clwb(0x80, 100);
    EXPECT_GT(t.persistTick, 100u);
    EXPECT_EQ(mem.numPersists, 1u);
    EXPECT_EQ(loadWord(mem.store.read(0x80), 0), 42u);
}

TEST_F(HierarchyTest, ClwbLeavesLineCachedClean)
{
    const std::uint64_t v = 43;
    h.store(0x80, &v, sizeof(v), 0);
    h.clwb(0x80, 100);
    ASSERT_NE(h.l1().find(0x80), nullptr);
    EXPECT_FALSE(h.l1().find(0x80)->dirty);
    std::uint64_t out = 0;
    const Tick t = h.load(0x80, &out, 8, 1000);
    EXPECT_EQ(out, 43u);
    EXPECT_EQ(t, 1002u); // still an L1 hit
    // Clean now: invalidation does not lose it from NVM's view.
    h.invalidateAll();
    EXPECT_EQ(loadWord(mem.store.read(0x80), 0), 43u);
}

TEST_F(HierarchyTest, ClwbOfAbsentLineQueriesPendingPersists)
{
    const PersistTicket t = h.clwb(0x5000, 100);
    EXPECT_EQ(mem.numPersists, 0u);
    EXPECT_EQ(mem.numPendingQueries, 1u);
    EXPECT_EQ(t.persistTick, 100u + 2u);
}

TEST_F(HierarchyTest, ClwbOfCleanLineDoesNotRewrite)
{
    std::uint8_t buf[8];
    h.load(0x80, buf, 8, 0);
    h.clwb(0x80, 100);
    EXPECT_EQ(mem.numPersists, 0u);
}

TEST_F(HierarchyTest, DirtyDataLostOnCrashWithoutClwb)
{
    const std::uint64_t v = 0x1111;
    h.store(0x140, &v, sizeof(v), 0);
    h.invalidateAll();
    EXPECT_EQ(mem.store.read(0x140), zeroBlock());
    std::uint64_t out = 0xFF;
    h.load(0x140, &out, 8, 1000);
    EXPECT_EQ(out, 0u);
}

TEST_F(HierarchyTest, RepeatedStoresStayCoherentThroughEvictions)
{
    // Write more set-conflicting blocks than L1+L2 can hold, then
    // verify every value survives via LLC/memory.
    constexpr int n = 64;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = 0x9000 + i;
        h.store(Addr(i) * 0x200, &v, sizeof(v), Tick(i) * 10);
    }
    for (int i = 0; i < n; ++i) {
        std::uint64_t out = 0;
        h.load(Addr(i) * 0x200, &out, 8, 100000 + Tick(i) * 10);
        EXPECT_EQ(out, std::uint64_t(0x9000 + i)) << i;
    }
}

TEST_F(HierarchyTest, ClwbAfterPartialEvictionStillPersistsNewest)
{
    // Dirty a line, force it down to L2 by thrashing L1's set, then
    // CLWB must still find and persist the newest data.
    const std::uint64_t v = 0x7777;
    h.store(0x0, &v, sizeof(v), 0);
    // L1: 512B, 2-way, 4 sets => set stride 0x100.
    std::uint8_t buf[8];
    h.load(0x400, buf, 8, 100);
    h.load(0x800, buf, 8, 200); // 0x0 evicted from L1 into L2
    h.clwb(0x0, 300);
    EXPECT_EQ(loadWord(mem.store.read(0x0), 0), 0x7777u);
}

TEST_F(HierarchyTest, StaleDirtyEvictionWritesTheNewestValue)
{
    // In the tiny hierarchy a block's L2 and LLC sets are subsets of
    // its L1 set (strides 0x100, 0x200, 0x400), so filling X's lower
    // sets also thrashes L1; touching X between the fills keeps it
    // there.
    const Addr x = 0x0;
    const std::uint64_t v1 = 0x1111, v2 = 0x2222;
    std::uint8_t buf[8];
    Tick t = 0;

    // 1. Dirty X in L1.
    h.store(x, &v1, sizeof(v1), t);
    // 2. Thrash L1's set: X is written back into L2.
    h.load(0x400, buf, 8, t += 1000);
    h.load(0x800, buf, 8, t += 1000);
    ASSERT_EQ(h.l1().find(x), nullptr);
    ASSERT_NE(h.l2().find(x), nullptr);
    ASSERT_TRUE(h.l2().find(x)->dirty);
    // 3. Reload X into L1 and store a new value: L2's dirty copy is
    //    now older than L1's.
    h.store(x, &v2, sizeof(v2), t += 1000);
    // 4. Force L2 and then the LLC to evict X.
    for (Addr a = 0xC00; h.llc().find(x) && a < 0x10000; a += 0x400) {
        h.load(a, buf, 8, t += 1000);
        h.load(x, buf, 8, t += 1000);
    }
    ASSERT_EQ(h.l2().find(x), nullptr);
    ASSERT_EQ(h.llc().find(x), nullptr);
    ASSERT_NE(h.l1().find(x), nullptr);
    EXPECT_TRUE(h.l1().find(x)->dirty);

    // Memory received the newest value, not the copy L2 was holding.
    ASSERT_EQ(mem.writebackLog.size(), 1u);
    EXPECT_EQ(mem.writebackLog[0], x);
    EXPECT_EQ(loadWord(mem.store.read(x), 0), v2);
}

} // namespace
