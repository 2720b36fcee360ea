/**
 * @file
 * NVM device timing and functional tests.
 */

#include <gtest/gtest.h>

#include "mem/nvm_device.hh"

namespace
{

using namespace dolos;

NvmParams
paperParams()
{
    NvmParams p;
    p.readLatency = 600;
    p.writeLatency = 2000;
    p.numBanks = 8;
    return p;
}

NvmParams
fifoParams()
{
    auto p = paperParams();
    p.readPriority = false;
    return p;
}

TEST(NvmDevice, ReadLatencyOnIdleBank)
{
    NvmDevice nvm(paperParams());
    const auto r = nvm.read(0x0, 100);
    EXPECT_EQ(r.completeTick, 100u + 600u);
}

TEST(NvmDevice, WriteLatencyOnIdleBank)
{
    NvmDevice nvm(paperParams());
    Block b{};
    EXPECT_EQ(nvm.write(0x0, b, 50), 50u + 2000u);
}

TEST(NvmDevice, SameBankAccessesSerialize)
{
    NvmDevice nvm(paperParams());
    Block b{};
    // Bank stride is numBanks * blockSize.
    const Addr same_bank = 8 * 64;
    const Tick t1 = nvm.write(0x0, b, 0);
    EXPECT_EQ(t1, 2000u);
    const Tick t2 = nvm.write(same_bank, b, 0);
    EXPECT_EQ(t2, 4000u);
}

TEST(NvmDevice, DifferentBanksOverlap)
{
    NvmDevice nvm(paperParams());
    Block b{};
    EXPECT_EQ(nvm.write(0 * 64, b, 0), 2000u);
    EXPECT_EQ(nvm.write(1 * 64, b, 0), 2000u);
    EXPECT_EQ(nvm.write(7 * 64, b, 0), 2000u);
}

TEST(NvmDevice, DataPersistsFunctionally)
{
    NvmDevice nvm(paperParams());
    Block b{};
    b[3] = 0x77;
    nvm.write(0x1000, b, 0);
    EXPECT_EQ(nvm.read(0x1000, 5000).data[3], 0x77);
    EXPECT_EQ(nvm.readFunctional(0x1000)[3], 0x77);
}

TEST(NvmDevice, FunctionalWriteHasNoTimingEffect)
{
    NvmDevice nvm(paperParams());
    Block b{};
    nvm.writeFunctional(0x0, b);
    EXPECT_EQ(nvm.bankFreeAt(0x0), 0u);
    const auto r = nvm.read(0x0, 0);
    EXPECT_EQ(r.completeTick, 600u);
}

TEST(NvmDevice, FifoReadAfterWriteOnSameBankWaits)
{
    NvmDevice nvm(fifoParams());
    Block b{};
    nvm.write(0x0, b, 0); // bank busy until 2000
    const auto r = nvm.read(0x0, 100);
    EXPECT_EQ(r.completeTick, 2000u + 600u);
}

TEST(NvmDevice, ReadPriorityBypassesBufferedWrites)
{
    NvmDevice nvm(paperParams());
    Block b{};
    nvm.write(0x0, b, 0);
    nvm.write(8 * 64, b, 0); // same bank, queued
    const auto r = nvm.read(0x0, 100);
    EXPECT_EQ(r.completeTick, 100u + 600u);
    // Reads still serialize against each other per bank.
    const auto r2 = nvm.read(8 * 64, 100);
    EXPECT_EQ(r2.completeTick, 100u + 600u + 600u);
}

TEST(NvmDevice, StatsCount)
{
    NvmDevice nvm(paperParams());
    Block b{};
    nvm.write(0x0, b, 0);
    nvm.read(0x40, 0);
    nvm.read(0x80, 0);
    EXPECT_EQ(nvm.writes(), 1u);
    EXPECT_EQ(nvm.reads(), 2u);
}

TEST(NvmMediaFaults, TransientFlipFiresOnceThenHeals)
{
    NvmDevice nvm(paperParams());
    Block b{};
    b[2] = 0xA5;
    nvm.write(0x1000, b, 0);

    nvm.injectTransientFlip(0x1000, 16); // bit 0 of byte 2
    const auto faulty = nvm.read(0x1000, 5000);
    EXPECT_TRUE(nvm.lastReadMediaError());
    EXPECT_EQ(faulty.data[2], 0xA5 ^ 0x01);

    // One-shot: the retry sees pristine data and a clean flag.
    const auto retry = nvm.read(0x1000, 9000);
    EXPECT_FALSE(nvm.lastReadMediaError());
    EXPECT_EQ(retry.data[2], 0xA5);
    EXPECT_EQ(nvm.mediaErrorReads(), 1u);
}

TEST(NvmMediaFaults, StuckBitPersistsAndAlwaysFlags)
{
    NvmDevice nvm(paperParams());
    Block b{};
    nvm.write(0x2000, b, 0);

    nvm.injectStuckBit(0x2000, 9, true); // bit 1 of byte 1 pinned high
    for (int i = 0; i < 3; ++i) {
        const auto r = nvm.read(0x2000, 5000 + i * 1000);
        EXPECT_TRUE(nvm.lastReadMediaError()) << "read " << i;
        EXPECT_EQ(r.data[1], 0x02) << "read " << i;
    }
    // Rewriting does not repair a worn cell.
    Block fresh{};
    nvm.write(0x2000, fresh, 20000);
    EXPECT_EQ(nvm.read(0x2000, 30000).data[1], 0x02);
    EXPECT_TRUE(nvm.hasUnhealableFault(0x2000));
    EXPECT_FALSE(nvm.hasUnhealableFault(0x1000));
}

TEST(NvmMediaFaults, WriteFailSuppressesCommitThenRecovers)
{
    NvmDevice nvm(paperParams());
    Block before{};
    before[0] = 0x11;
    nvm.write(0x3000, before, 0);

    nvm.injectWriteFail(0x3000, 2);
    Block after{};
    after[0] = 0x22;
    nvm.write(0x3000, after, 5000);
    EXPECT_TRUE(nvm.lastWriteMediaError());
    EXPECT_EQ(nvm.readFunctional(0x3000)[0], 0x11) << "write committed";
    nvm.write(0x3000, after, 9000);
    EXPECT_TRUE(nvm.lastWriteMediaError());

    // Budget exhausted: the third attempt lands.
    nvm.write(0x3000, after, 13000);
    EXPECT_FALSE(nvm.lastWriteMediaError());
    EXPECT_EQ(nvm.readFunctional(0x3000)[0], 0x22);
    EXPECT_EQ(nvm.mediaErrorWrites(), 2u);
}

TEST(NvmMediaFaults, FunctionalAccessesBypassTheFaultModel)
{
    NvmDevice nvm(paperParams());
    Block b{};
    b[0] = 0x3C;
    nvm.write(0x4000, b, 0);
    nvm.injectTransientFlip(0x4000, 0);
    nvm.injectStuckBit(0x4000, 8, true);

    // Functional (debug/recovery) reads see raw stored bytes and do
    // not consume the one-shot flip or raise flags.
    EXPECT_EQ(nvm.readFunctional(0x4000)[0], 0x3C);
    EXPECT_EQ(nvm.readFunctional(0x4000)[1], 0x00);
    EXPECT_FALSE(nvm.lastReadMediaError());

    // The timed path still sees both faults afterwards: the one-shot
    // flip on bit 0 of byte 0, the stuck cell at bit 0 of byte 1.
    const auto r = nvm.read(0x4000, 5000);
    EXPECT_TRUE(nvm.lastReadMediaError());
    EXPECT_EQ(r.data[0], 0x3C ^ 0x01);
    EXPECT_EQ(r.data[1], 0x01);
}

TEST(NvmMediaFaults, ReadFunctionalCheckedSeesTheFaultModel)
{
    // Recovery and scrub read through readFunctionalChecked: not
    // timed, but they must observe (and get to disambiguate) the same
    // cell wear a demand read would.
    NvmDevice nvm(paperParams());
    Block b{};
    b[0] = 0x0F;
    nvm.write(0x7000, b, 0);
    nvm.injectStuckBit(0x7000, 4, true); // bit 4 of byte 0

    const Block checked = nvm.readFunctionalChecked(0x7000);
    EXPECT_TRUE(nvm.lastReadMediaError());
    EXPECT_EQ(checked[0], 0x1F);
    // The raw functional path still bypasses the fault model.
    EXPECT_EQ(nvm.readFunctional(0x7000)[0], 0x0F);
}

TEST(NvmMediaRetry, StuckCellGivesUpAfterTheLimitWithDoublingBackoff)
{
    auto p = paperParams();
    p.mediaRetryLimit = 4;
    p.mediaRetryBackoff = 100;
    NvmDevice nvm(p);
    nvm.write(0x2000, Block{}, 0);
    nvm.injectStuckBit(0x2000, 3, true);

    // Each retry is issued at the previous completion plus
    // backoff << (k-1): reads end at 600, then 600+100+600,
    // 1300+200+600, 2100+400+600 and 3100+800+600.
    MediaRetry m;
    const ReadResult r = nvm.readRetried(0x2000, 0, m);
    EXPECT_EQ(m.retries, 4u);
    EXPECT_TRUE(m.failed);
    EXPECT_TRUE(m.flagged);
    EXPECT_EQ(m.done, 4500u);
    EXPECT_EQ(r.completeTick, 4500u);
    EXPECT_EQ(r.data[0], 0x08); // the stuck value, for the caller
    EXPECT_EQ(nvm.reads(), 5u);
    EXPECT_EQ(nvm.mediaRetries(), 4u);
    EXPECT_EQ(nvm.mediaHealed(), 0u);
    EXPECT_FALSE(nvm.isQuarantined(0x2000)); // the caller's decision
}

TEST(NvmMediaRetry, TransientFlipHealsOnTheFirstRetry)
{
    NvmDevice nvm(paperParams());
    Block b{};
    b[0] = 0x5A;
    nvm.write(0x1000, b, 0);
    nvm.injectTransientFlip(0x1000, 0);

    // The write holds no read-track bank: the first read ends at
    // 1000+600, the retry 300 cycles later ends at 2500.
    MediaRetry m;
    const ReadResult r = nvm.readRetried(0x1000, 1000, m);
    EXPECT_EQ(m.retries, 1u);
    EXPECT_FALSE(m.failed);
    EXPECT_EQ(r.completeTick, 2500u);
    EXPECT_EQ(r.data[0], 0x5A);
    EXPECT_EQ(nvm.mediaRetries(), 1u);
    EXPECT_EQ(nvm.mediaHealed(), 1u);

    // A clean read is one attempt, no retry.
    nvm.readRetried(0x1000, 5000, m);
    EXPECT_EQ(m.retries, 0u);
    EXPECT_FALSE(m.failed);
    EXPECT_EQ(nvm.mediaRetries(), 1u);
}

TEST(NvmMediaRetry, WriteRetriesUntilTheCommitLands)
{
    NvmDevice nvm(paperParams());
    nvm.injectWriteFail(0x3000, 2);
    Block b{};
    b[0] = 0x77;
    MediaRetry m;
    // 0+2000, then 2000+300+2000, then 4300+600+2000.
    EXPECT_EQ(nvm.writeRetried(0x3000, b, 0, m), 6900u);
    EXPECT_EQ(m.retries, 2u);
    EXPECT_FALSE(m.failed);
    EXPECT_EQ(nvm.readFunctional(0x3000)[0], 0x77);
    EXPECT_EQ(nvm.mediaHealed(), 1u);

    // More failures than the limit: the fault persists.
    nvm.injectWriteFail(0x3000, 8);
    nvm.writeRetried(0x3000, Block{}, 10000, m);
    EXPECT_EQ(m.retries, nvm.config().mediaRetryLimit);
    EXPECT_TRUE(m.failed);
    EXPECT_EQ(nvm.readFunctional(0x3000)[0], 0x77);
    EXPECT_EQ(nvm.mediaRetries(), 2u + nvm.config().mediaRetryLimit);
}

TEST(NvmMediaRetry, CheckedReadRetriesUntimed)
{
    NvmDevice nvm(paperParams());
    nvm.writeFunctional(0x6000, Block{});
    nvm.injectTransientFlip(0x6000, 7);
    MediaRetry m;
    EXPECT_EQ(nvm.readCheckedRetried(0x6000, m), Block{});
    EXPECT_EQ(m.retries, 1u);
    EXPECT_FALSE(m.failed);
    EXPECT_EQ(nvm.reads(), 0u); // untimed: no demand reads
    EXPECT_EQ(nvm.mediaHealed(), 1u);
}

TEST(NvmMediaRetry, CallerCheckJudgesContent)
{
    // A flagged attempt the caller accepts is not retried; one it
    // rejects is, and an unflagged rejection ends the retries.
    NvmDevice nvm(paperParams());
    unsigned calls = 0;
    const auto again = [&](Tick at) {
        ++calls;
        return MediaAttempt{false, false, at + 1};
    };
    MediaRetry m = nvm.retry({true, true, 10}, again);
    EXPECT_EQ(calls, 0u);
    EXPECT_FALSE(m.failed);

    m = nvm.retry({true, false, 10}, again);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(m.retries, 1u);
    EXPECT_TRUE(m.failed);
    EXPECT_FALSE(m.flagged);
    EXPECT_EQ(m.done, 311u); // issued at 10 + 300
    EXPECT_EQ(nvm.mediaHealed(), 0u);
}

TEST(NvmMediaFaults, RemapToSpareRetiresTheWornRow)
{
    auto p = paperParams();
    p.spareBlocks = 1;
    NvmDevice nvm(p);
    Block b{};
    b[1] = 0x5A;
    nvm.write(0x8000, b, 0);
    nvm.injectStuckBit(0x8000, 8, false); // pin bit 0 of byte 1 low
    nvm.injectWriteFail(0x8000, 4);
    ASSERT_EQ(nvm.sparesLeft(), 1u);

    // The remapped frame is a healthy row: all pending faults gone.
    EXPECT_TRUE(nvm.remapToSpare(0x8000, "worn counter frame"));
    EXPECT_EQ(nvm.sparesLeft(), 0u);
    EXPECT_FALSE(nvm.hasUnhealableFault(0x8000));
    nvm.readFunctionalChecked(0x8000);
    EXPECT_FALSE(nvm.lastReadMediaError());
    ASSERT_EQ(nvm.remapLog().size(), 1u);
    EXPECT_EQ(nvm.remapLog().front().addr, 0x8000u);
    EXPECT_EQ(nvm.remapLog().front().reason, "worn counter frame");

    // Spares exhausted: the next worn frame cannot be remapped.
    nvm.injectStuckBit(0x9000, 3, true);
    EXPECT_FALSE(nvm.remapToSpare(0x9000, "no spare left"));
    EXPECT_TRUE(nvm.hasUnhealableFault(0x9000));
}

TEST(NvmMediaFaults, QuarantineRecordsCascadeProvenance)
{
    NvmDevice nvm(paperParams());
    nvm.quarantine(0xA000, "covering MAC block unrecoverable", 3,
                   "mac_block_0x20000000000");
    nvm.quarantine(0xB000, "read retries exhausted", 3);
    const auto &log = nvm.quarantineLog();
    ASSERT_EQ(log.count(0xA000), 1u);
    EXPECT_EQ(log.at(0xA000).cause, "mac_block_0x20000000000");
    EXPECT_TRUE(log.at(0xB000).cause.empty());
}

TEST(NvmMediaFaults, QuarantineRegistryDeduplicatesByBlock)
{
    NvmDevice nvm(paperParams());
    EXPECT_EQ(nvm.quarantineCount(), 0u);
    nvm.quarantine(0x5008, "read retries exhausted", 3);
    nvm.quarantine(0x5030, "same block, different byte", 5);
    nvm.quarantine(0x6000, "write retries exhausted", 3);
    EXPECT_EQ(nvm.quarantineCount(), 2u);
    EXPECT_TRUE(nvm.isQuarantined(0x5000));
    EXPECT_TRUE(nvm.isQuarantined(0x503F));
    EXPECT_FALSE(nvm.isQuarantined(0x5040));
    EXPECT_TRUE(nvm.hasUnhealableFault(0x6000));
    const auto &log = nvm.quarantineLog();
    ASSERT_EQ(log.count(0x5000), 1u);
    EXPECT_EQ(log.at(0x5000).reason, "read retries exhausted");
    EXPECT_EQ(log.at(0x5000).retries, 3u);
}

} // namespace
