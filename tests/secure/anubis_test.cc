/**
 * @file
 * Anubis shadow-table tests.
 */

#include <gtest/gtest.h>

#include "crypto/mac_engine.hh"
#include "secure/anubis.hh"

namespace
{

using namespace dolos;

struct AnubisTest : ::testing::Test
{
    NvmDevice nvm{NvmParams{}};
    std::unique_ptr<crypto::MacEngine> mac = crypto::makeMacEngine(
        crypto::MacKind::SipHash24, {7, 7, 7, 7});
    AnubisShadow shadow{16, nvm, *mac};

    CounterPage
    page(std::uint64_t major, std::uint8_t minor0) const
    {
        CounterPage p;
        p.major = major;
        p.minors[0] = minor0;
        return p;
    }
};

TEST_F(AnubisTest, EmptyScanFindsNothing)
{
    const auto scan = shadow.scan();
    EXPECT_TRUE(scan.entries.empty());
    EXPECT_FALSE(scan.tamperDetected);
}

TEST_F(AnubisTest, RecordedEntryIsRecovered)
{
    shadow.recordUpdate(3, 42, page(1, 5).pack(), 100, 0);
    const auto scan = shadow.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_EQ(scan.entries[0].pageIdx, 42u);
    EXPECT_EQ(scan.entries[0].seq, 100u);
    EXPECT_EQ(scan.entries[0].page, page(1, 5));
    EXPECT_FALSE(scan.tamperDetected);
}

TEST_F(AnubisTest, SlotOverwriteKeepsLatest)
{
    shadow.recordUpdate(3, 42, page(1, 5).pack(), 100, 0);
    shadow.recordUpdate(3, 42, page(1, 6).pack(), 101, 10);
    const auto scan = shadow.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_EQ(scan.entries[0].page, page(1, 6));
}

TEST_F(AnubisTest, IndependentSlotsCoexist)
{
    shadow.recordUpdate(0, 1, page(1, 1).pack(), 1, 0);
    shadow.recordUpdate(15, 2, page(2, 2).pack(), 2, 0);
    const auto scan = shadow.scan();
    EXPECT_EQ(scan.entries.size(), 2u);
}

TEST_F(AnubisTest, TamperedContentDetected)
{
    shadow.recordUpdate(5, 9, page(3, 3).pack(), 7, 0);
    // Attacker flips a bit in the packed page stored in NVM.
    const Addr addr = AddressMap::shadowSlotAddr(5 * 2);
    Block b = nvm.readFunctional(addr);
    b[0] ^= 1;
    nvm.writeFunctional(addr, b);

    const auto scan = shadow.scan();
    EXPECT_TRUE(scan.tamperDetected);
    EXPECT_TRUE(scan.entries.empty());
}

TEST_F(AnubisTest, TamperedMetadataDetected)
{
    shadow.recordUpdate(5, 9, page(3, 3).pack(), 7, 0);
    const Addr addr = AddressMap::shadowSlotAddr(5 * 2) + blockSize;
    Block b = nvm.readFunctional(addr);
    b[8] ^= 0x10; // page index field
    nvm.writeFunctional(addr, b);

    const auto scan = shadow.scan();
    EXPECT_TRUE(scan.tamperDetected);
}

TEST_F(AnubisTest, ReplayedOldEntryIsInternallyConsistent)
{
    // A replayed old (content, MAC) pair passes the slot MAC -- the
    // defense against replay is the eagerly-persisted tree root,
    // checked at the engine level, not here.
    shadow.recordUpdate(5, 9, page(3, 3).pack(), 7, 0);
    const Addr a0 = AddressMap::shadowSlotAddr(5 * 2);
    const Block old0 = nvm.readFunctional(a0);
    const Block old1 = nvm.readFunctional(a0 + blockSize);

    shadow.recordUpdate(5, 9, page(3, 4).pack(), 8, 10);
    nvm.writeFunctional(a0, old0);
    nvm.writeFunctional(a0 + blockSize, old1);

    const auto scan = shadow.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_FALSE(scan.tamperDetected);
    EXPECT_EQ(scan.entries[0].page, page(3, 3)); // the stale image
}

TEST_F(AnubisTest, WritesAreCounted)
{
    shadow.recordUpdate(0, 1, page(1, 1).pack(), 1, 0);
    shadow.recordUpdate(1, 2, page(1, 1).pack(), 2, 0);
    EXPECT_EQ(shadow.writes(), 2u);
}

TEST_F(AnubisTest, DeathOnBadSlot)
{
    EXPECT_DEATH(shadow.recordUpdate(16, 1, page(1, 1).pack(), 1, 0),
                 "out of range");
}

} // namespace
