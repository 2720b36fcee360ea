/**
 * @file
 * Set-associative tag array tests: the lookup, LRU and reset rules
 * the data caches and the metadata caches share.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/tag_array.hh"

namespace
{

using namespace dolos;

// 4 sets x 2 ways; addresses in set 0 are multiples of 0x100.
TagArray
tiny()
{
    return TagArray("tiny", 512, 2);
}

TEST(TagCache, MissThenHit)
{
    TagArray ta = tiny();
    EXPECT_EQ(ta.find(0x0), nullptr);
    ta.insert(0x0, false);
    ASSERT_NE(ta.find(0x0), nullptr);
    EXPECT_EQ(ta.find(0x0)->tag, 0x0u);
}

TEST(TagCache, InsertReportsDirtyVictimOnly)
{
    TagArray ta = tiny();
    EXPECT_FALSE(ta.insert(0x000, true).valid);  // set 0, dirty
    EXPECT_FALSE(ta.insert(0x100, false).valid); // set 0, clean
    // Third insert into set 0 evicts the LRU (0x000, dirty).
    const auto ev = ta.insert(0x200, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.tag, 0x000u);

    // Now 0x100 (clean) is LRU; it is displaced clean.
    const auto ev2 = ta.insert(0x300, false);
    ASSERT_TRUE(ev2.valid);
    EXPECT_FALSE(ev2.dirty);
    EXPECT_EQ(ev2.tag, 0x100u);
}

TEST(TagCache, LookupRefreshesLru)
{
    TagArray ta = tiny();
    ta.insert(0x000, false);
    ta.insert(0x100, false);
    ta.touch(*ta.find(0x000)); // a hit
    ta.insert(0x200, false);   // evicts 0x100
    EXPECT_NE(ta.find(0x000), nullptr);
    EXPECT_EQ(ta.find(0x100), nullptr);
}

TEST(TagCache, SlotOfIsStableAndInRange)
{
    TagArray ta = tiny();
    ta.insert(0x0, false);
    const auto slot = ta.slotOf(0x0);
    EXPECT_LT(slot, ta.numSlots());
    ta.touch(*ta.find(0x0));
    ta.insert(0x100, false);
    EXPECT_EQ(ta.slotOf(0x0), slot);
}

TEST(TagCache, InvalidateAllEmpties)
{
    TagArray ta = tiny();
    ta.insert(0x0, true);
    ta.insert(0x40, false);
    std::vector<Addr> dropped;
    ta.reset([&](const TagArray::Line &l) { dropped.push_back(l.tag); });
    EXPECT_EQ(dropped, (std::vector<Addr>{0x0, 0x40}));
    EXPECT_EQ(ta.find(0x0), nullptr);
    EXPECT_EQ(ta.find(0x40), nullptr);
    // The LRU clock restarts with the array.
    ta.insert(0x0, false);
    EXPECT_EQ(ta.find(0x0)->lastUse, 1u);
}

TEST(TagCacheDeath, DoubleInsertPanics)
{
    TagArray ta = tiny();
    ta.insert(0x0, false);
    EXPECT_DEATH(ta.insert(0x0, false), "double insert");
}

TEST(TagCache, SubBlockAddressesAlias)
{
    TagArray ta = tiny();
    ta.insert(0x40, false);
    EXPECT_EQ(ta.find(0x7F), ta.find(0x40));
    EXPECT_EQ(ta.slotOf(0x7F), ta.slotOf(0x40));
}

TEST(TagArray, EmptySetFillsWaysOneToNThenZero)
{
    // Anubis numbers its shadow slots by line index, so this fill
    // order is part of the crash image: 2 sets x 4 ways.
    TagArray ta("four-way", 512, 4);
    std::vector<std::size_t> slots;
    for (Addr a = 0; a < 4 * 0x80; a += 0x80) {
        ta.insert(a, false);
        slots.push_back(ta.slotOf(a));
    }
    EXPECT_EQ(slots, (std::vector<std::size_t>{1, 2, 3, 0}));
    // A full set evicts its least recently used way: the first fill.
    ta.touch(*ta.find(0x100));
    EXPECT_EQ(ta.insert(0x200, false).tag, 0x0u);
    EXPECT_EQ(ta.slotOf(0x200), 1u);
}

TEST(TagArrayDeath, BadGeometryIsRejected)
{
    EXPECT_EQ(TagArray::geometryError(512, 2), "");
    EXPECT_EQ(TagArray::geometryError(0, 2), "sizeBytes must be nonzero");
    EXPECT_EQ(TagArray::geometryError(512, 0), "assoc must be nonzero");
    EXPECT_EQ(TagArray::geometryError(100, 3),
              "sizeBytes (100) must be a multiple of 64 x assoc (192)");
    EXPECT_DEATH(TagArray("bad", 100, 3), "cache bad: bad geometry");
}

} // namespace
