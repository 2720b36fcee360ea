/**
 * @file
 * Split-counter tests: packing, increment, overflow semantics.
 */

#include <gtest/gtest.h>

#include "secure/counters.hh"
#include "sim/random.hh"

namespace
{

using namespace dolos;

TEST(CounterPage, PackUnpackRoundTrips)
{
    Random rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        CounterPage p;
        p.major = rng.next();
        for (auto &m : p.minors)
            m = std::uint8_t(rng.below(128));
        EXPECT_EQ(CounterPage::unpack(p.pack()), p);
    }
}

TEST(CounterPage, PackedFitsExactlyOneBlock)
{
    // 8B major + 64 x 7-bit minors = 64 bytes exactly; the last
    // minor must land fully inside the block.
    CounterPage p;
    p.major = ~0ULL;
    p.minors.fill(127);
    const Block b = p.pack();
    EXPECT_EQ(CounterPage::unpack(b), p);
}

TEST(CounterPage, PackedLayoutIsALittleEndianBitStream)
{
    // Minor i occupies bits [7i, 7i + 7) of bytes [8, 64), least
    // significant bit first: the persisted counter-block format.
    CounterPage p;
    p.major = 0x0102030405060708ULL;
    p.minors[1] = 0x7F;  // bits 7..13
    p.minors[8] = 0x01;  // bit 56
    p.minors[63] = 0x41; // bits 441..447
    const Block b = p.pack();
    EXPECT_EQ(b[0], 0x08);
    EXPECT_EQ(b[7], 0x01);
    EXPECT_EQ(b[8], 0x80);
    EXPECT_EQ(b[9], 0x3F);
    EXPECT_EQ(b[10], 0x00);
    EXPECT_EQ(b[15], 0x01);
    EXPECT_EQ(b[63], 0x82);
    EXPECT_EQ(b[62], 0x00);
}

TEST(CounterPage, CounterOfCombinesMajorAndMinor)
{
    CounterPage p;
    p.major = 3;
    p.minors[10] = 5;
    EXPECT_EQ(p.counterOf(10), 3u * 128 + 5);
    EXPECT_EQ(p.counterOf(0), 3u * 128);
}

TEST(CounterStore, FreshCountersAreZero)
{
    CounterStore cs;
    EXPECT_EQ(cs.counterOf(0x1000), 0u);
}

TEST(CounterStore, IncrementBumpsOnlyThatBlock)
{
    CounterStore cs;
    const auto r = cs.increment(0x40); // block 1 of page 0
    EXPECT_EQ(r.newCounter, 1u);
    EXPECT_FALSE(r.pageOverflow);
    EXPECT_EQ(cs.counterOf(0x40), 1u);
    EXPECT_EQ(cs.counterOf(0x0), 0u);
    EXPECT_EQ(cs.counterOf(0x40 + pageBytes), 0u); // other page
}

TEST(CounterStore, MinorOverflowBumpsMajorAndResetsMinors)
{
    CounterStore cs;
    cs.increment(0x80); // some other block gains a count
    for (std::uint64_t i = 0; i < minorCounterLimit - 1; ++i)
        cs.increment(0x0);
    EXPECT_EQ(cs.counterOf(0x0), minorCounterLimit - 1);

    const auto r = cs.increment(0x0); // 128th bump: overflow
    EXPECT_TRUE(r.pageOverflow);
    EXPECT_EQ(r.newCounter, minorCounterLimit); // major 1, minor 0
    // The sibling block's minor was reset too.
    EXPECT_EQ(cs.counterOf(0x80), minorCounterLimit);
}

TEST(CounterStore, CountersMonotonicallyIncreaseAcrossOverflow)
{
    CounterStore cs;
    std::uint64_t prev = 0;
    for (int i = 0; i < 400; ++i) {
        const auto r = cs.increment(0x0);
        EXPECT_GT(r.newCounter, prev);
        prev = r.newCounter;
    }
}

TEST(CounterStore, RestorePageInstallsImage)
{
    CounterStore cs;
    CounterPage p;
    p.major = 7;
    p.minors[3] = 9;
    cs.restorePage(2, p);
    EXPECT_EQ(cs.counterOf(2 * pageBytes + 3 * blockSize),
              7u * 128 + 9);
}

TEST(CounterStore, ClearDropsEverything)
{
    CounterStore cs;
    cs.increment(0x0);
    cs.clear();
    EXPECT_EQ(cs.counterOf(0x0), 0u);
    EXPECT_TRUE(cs.all().empty());
}

} // namespace
