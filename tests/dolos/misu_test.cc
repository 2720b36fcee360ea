/**
 * @file
 * Mi-SU tests: latencies, pad handling, MAC/root verification,
 * epoch advance (pad non-reuse).
 */

#include <gtest/gtest.h>

#include "dolos/misu.hh"

namespace
{

using namespace dolos;

struct MisuTest : ::testing::Test
{
    crypto::MacEngine mac{{1, 2, 3}};
    crypto::AesKey key{{9, 8, 7, 6}};

    MiSu
    make(SecurityMode mode, unsigned cap)
    {
        return MiSu(modeTraits(mode), cap, 160, key, mac);
    }

    Block
    data(std::uint8_t seed)
    {
        Block b;
        for (unsigned i = 0; i < blockSize; ++i)
            b[i] = std::uint8_t(seed + 2 * i);
        return b;
    }
};

TEST_F(MisuTest, InsertLatenciesMatchPaper)
{
    EXPECT_EQ(make(SecurityMode::DolosFullWpq, 16).insertLatency(), 320u);
    EXPECT_EQ(make(SecurityMode::DolosPartialWpq, 13).insertLatency(),
              160u);
    EXPECT_EQ(make(SecurityMode::DolosPostWpq, 10).insertLatency(), 0u);
}

TEST_F(MisuTest, ProtectEncryptsDataAndAddress)
{
    auto misu = make(SecurityMode::DolosPartialWpq, 13);
    const Block pt = data(1);
    const auto img = misu.protect(0, 0x1000, pt, 0);
    EXPECT_NE(img.ctData, pt);
    EXPECT_NE(img.ctAddr, 0x1000u);
}

TEST_F(MisuTest, UnprotectRoundTrips)
{
    auto misu = make(SecurityMode::DolosPartialWpq, 13);
    const Block pt = data(2);
    const auto img = misu.protect(5, 0x2040, pt, 0);
    const auto [addr, out] = misu.unprotect(5, img);
    EXPECT_EQ(addr, 0x2040u);
    EXPECT_EQ(out, pt);
}

TEST_F(MisuTest, VerifyEntryDetectsTamper)
{
    auto misu = make(SecurityMode::DolosPartialWpq, 13);
    auto img = misu.protect(3, 0x40, data(3), 0);
    EXPECT_TRUE(misu.verifyEntry(3, img));
    img.ctData[0] ^= 1;
    EXPECT_FALSE(misu.verifyEntry(3, img));
}

TEST_F(MisuTest, VerifyEntryDetectsSlotRelocation)
{
    // Moving an entry to a different slot changes its counter and
    // fails verification.
    auto misu = make(SecurityMode::DolosPartialWpq, 13);
    const auto img = misu.protect(3, 0x40, data(3), 0);
    EXPECT_FALSE(misu.verifyEntry(4, img));
}

TEST_F(MisuTest, FullDesignRootVerifies)
{
    auto misu = make(SecurityMode::DolosFullWpq, 16);
    std::vector<std::pair<unsigned, MisuEntryImage>> imgs;
    for (unsigned s = 0; s < 4; ++s)
        imgs.emplace_back(s, misu.protect(s, 0x1000 + s * 64,
                                          data(std::uint8_t(s)), 0));
    EXPECT_TRUE(misu.verifyRoot(imgs));
    imgs[2].second.ctData[5] ^= 0x80;
    EXPECT_FALSE(misu.verifyRoot(imgs));
}

TEST_F(MisuTest, PostDesignBusyWindow)
{
    auto misu = make(SecurityMode::DolosPostWpq, 10);
    EXPECT_EQ(misu.acceptableAt(100), 100u);
    misu.protect(0, 0x0, data(0), 100);
    // Unit busy for one MAC after the commit.
    EXPECT_EQ(misu.acceptableAt(150), 260u);
    EXPECT_EQ(misu.acceptableAt(500), 500u);
}

TEST_F(MisuTest, MacUnitSerializesInserts)
{
    // Full/Partial: the unit is busy until the previous commit.
    auto misu = make(SecurityMode::DolosFullWpq, 16);
    misu.protect(0, 0x0, data(0), 420); // committed at 420
    EXPECT_EQ(misu.acceptableAt(200), 420u);
    EXPECT_EQ(misu.acceptableAt(500), 500u);
}

TEST_F(MisuTest, AdvanceEpochChangesPadsAndCounter)
{
    auto misu = make(SecurityMode::DolosPartialWpq, 13);
    const auto pcr0 = misu.persistentCounter();
    const auto img0 = misu.protect(0, 0x40, data(7), 0);
    misu.advanceEpoch();
    EXPECT_EQ(misu.persistentCounter(), pcr0 + 13);
    const auto img1 = misu.protect(0, 0x40, data(7), 0);
    // Same slot, same content, new epoch: different ciphertext.
    EXPECT_NE(img0.ctData, img1.ctData);
    // And the old image no longer verifies (counter moved on).
    EXPECT_FALSE(misu.verifyEntry(0, img0));
}

TEST_F(MisuTest, StorageOverheadMatchesTable3)
{
    const auto full = make(SecurityMode::DolosFullWpq, 16)
                          .storageOverhead();
    EXPECT_EQ(full.persistentCounterBytes, 8u);
    EXPECT_EQ(full.macBytes, 192u);
    EXPECT_EQ(full.padBytes, 72u * 16);

    const auto partial = make(SecurityMode::DolosPartialWpq, 13)
                             .storageOverhead();
    EXPECT_EQ(partial.macBytes, 128u);
    EXPECT_EQ(partial.padBytes, 80u * 13);

    const auto post = make(SecurityMode::DolosPostWpq, 10)
                          .storageOverhead();
    EXPECT_EQ(post.padBytes, 80u * 10);
}

TEST_F(MisuTest, DistinctSlotsProduceDistinctCiphertext)
{
    auto misu = make(SecurityMode::DolosPartialWpq, 13);
    const auto a = misu.protect(0, 0x40, data(9), 0);
    const auto b = misu.protect(1, 0x40, data(9), 0);
    EXPECT_NE(a.ctData, b.ctData);
}

} // namespace
