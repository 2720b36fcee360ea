/**
 * @file
 * Single cache-level tests: hits, misses, LRU, writebacks, crash loss,
 * and the value store the levels share.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "tests/mem/fake_memory.hh"

namespace
{

using namespace dolos;
using dolos::test::FakeMemory;

// Tiny cache: 4 sets x 2 ways x 64B = 512B, 2-cycle latency.
CacheParams
tinyParams()
{
    return CacheParams{"tiny", 512, 2, 2};
}

Block
patternBlock(std::uint8_t seed)
{
    Block b;
    for (unsigned i = 0; i < blockSize; ++i)
        b[i] = std::uint8_t(seed + i);
    return b;
}

TEST(Cache, MissThenHit)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    mem.store.write(0x0, patternBlock(7));

    const auto miss = c.access(0x0, 0);
    EXPECT_EQ(values.value(miss.slot), patternBlock(7));
    EXPECT_EQ(miss.done, 2u + 100u); // lookup + downstream
    EXPECT_EQ(c.misses(), 1u);

    const auto hit = c.access(0x0, 200);
    EXPECT_EQ(hit.done, 202u);
    EXPECT_EQ(hit.slot, miss.slot);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(mem.numReads, 1u);
}

TEST(Cache, SubBlockAddressesShareLine)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    c.access(0x40, 0);
    c.access(0x7F, 100);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, LruEvictsOldestWay)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    // 4 sets: addresses mapping to set 0 are multiples of 0x100.
    c.access(0x000, 0);
    c.access(0x100, 10);
    c.access(0x000, 20); // touch A: now B is LRU
    c.access(0x200, 30); // evicts B
    EXPECT_NE(c.find(0x000), nullptr);
    EXPECT_EQ(c.find(0x100), nullptr);
    EXPECT_NE(c.find(0x200), nullptr);
    EXPECT_EQ(values.size(), 2u); // B's value went with its line
}

TEST(Cache, DirtyEvictionWritesBack)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    const auto a = c.access(0x000, 0, /*store=*/true); // dirty in set 0
    values.value(a.slot) = patternBlock(1);
    c.access(0x100, 10);
    c.access(0x200, 20); // evicts 0x000 (dirty)
    EXPECT_EQ(mem.numWritebacks, 1u);
    EXPECT_EQ(mem.writebackLog[0], 0x000u);
    EXPECT_EQ(mem.store.read(0x000), patternBlock(1));
}

TEST(Cache, CleanEvictionIsSilent)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    c.access(0x000, 0);
    c.access(0x100, 10);
    c.access(0x200, 20); // evicts clean 0x000
    EXPECT_EQ(mem.numWritebacks, 0u);
}

TEST(Cache, UpdateIfPresentDirties)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    // A store to a present block dirties its line in place and writes
    // the one value the levels share.
    const auto fill = c.access(0x0, 0);
    EXPECT_FALSE(c.find(0x0)->dirty);
    const auto hit = c.access(0x0, 10, /*store=*/true);
    ASSERT_EQ(hit.slot, fill.slot);
    values.value(hit.slot) = patternBlock(9);
    ASSERT_NE(c.find(0x0), nullptr);
    EXPECT_TRUE(c.find(0x0)->dirty);
    EXPECT_EQ(values.value(c.find(0x0)->slot), patternBlock(9));
}

TEST(Cache, CleanOfAbsentBlockAllocatesNothing)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    c.clean(0x0);
    EXPECT_EQ(c.find(0x0), nullptr);
    EXPECT_EQ(values.size(), 0u);
    EXPECT_EQ(mem.numReads, 0u);
}

TEST(Cache, MarkCleanSuppressesWriteback)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    // clean() is what CLWB does at each level holding the block.
    c.access(0x000, 0, /*store=*/true);
    c.clean(0x000);
    EXPECT_FALSE(c.find(0x000)->dirty);
    c.access(0x100, 10);
    c.access(0x200, 20); // evicts 0x000, now clean
    EXPECT_EQ(mem.numWritebacks, 0u);
}

TEST(Cache, InvalidateAllLosesDirtyData)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    const auto a = c.access(0x0, 0, /*store=*/true);
    values.value(a.slot) = patternBlock(5);
    c.invalidateAll();
    EXPECT_EQ(c.find(0x0), nullptr);
    EXPECT_EQ(values.size(), 0u);
    // Data was never written downstream: genuinely lost.
    EXPECT_EQ(mem.store.read(0x0), zeroBlock());
}

TEST(Cache, WritebackHitUpdatesInPlace)
{
    FakeMemory mem;
    ValueStore values(64);
    Cache c(tinyParams(), values, mem);
    // A direct-mapped upper level over the tiny cache: its dirty
    // victim lands on the lower level's existing line, which shares
    // the upper level's value slot.
    Cache upper({"upper", 128, 1, 1}, values, mem, &c);
    const auto a = upper.access(0x0, 0, /*store=*/true);
    values.value(a.slot) = patternBlock(3);
    EXPECT_FALSE(c.find(0x0)->dirty);
    upper.access(0x80, 10); // same upper set: evicts dirty 0x0
    EXPECT_EQ(upper.find(0x0), nullptr);
    ASSERT_NE(c.find(0x0), nullptr);
    EXPECT_TRUE(c.find(0x0)->dirty);
    EXPECT_EQ(c.find(0x0)->slot, a.slot);
    EXPECT_EQ(values.value(a.slot), patternBlock(3));
    // No extra allocation happened: nothing was evicted.
    EXPECT_EQ(mem.numWritebacks, 0u);
}

TEST(ValueStore, LastLevelToDropFreesTheSlot)
{
    ValueStore values(4);
    const auto s = values.add(0x40, patternBlock(1));
    values.hold(s); // a second level holds the block
    values.drop(s);
    EXPECT_EQ(values.size(), 1u);
    values.drop(s);
    EXPECT_EQ(values.size(), 0u);
    // The freed slot is reused before the store grows.
    EXPECT_EQ(values.add(0x80, patternBlock(2)), s);
    EXPECT_EQ(values.value(s), patternBlock(2));
}

TEST(CacheDeath, BadGeometryPanics)
{
    FakeMemory mem;
    ValueStore values(1);
    CacheParams p{"bad", 100, 3, 1}; // not divisible
    EXPECT_DEATH(Cache(p, values, mem), "bad geometry");
}

} // namespace
