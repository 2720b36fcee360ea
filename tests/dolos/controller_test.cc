/**
 * @file
 * Controller tests: persist-ack points per mode, WPQ occupancy and
 * retries, coalescing, read forwarding, crash dump and recovery.
 */

#include <gtest/gtest.h>

#include "dolos/controller.hh"

namespace
{

using namespace dolos;

SystemConfig
testConfig(SecurityMode mode)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    cfg.secure.functionalLeaves = 256;
    cfg.secure.map.protectedBytes = Addr(256) * pageBytes;
    return cfg;
}

Block
pattern(std::uint8_t seed)
{
    Block b;
    for (unsigned i = 0; i < blockSize; ++i)
        b[i] = std::uint8_t(seed * 7 + i);
    return b;
}

struct Rig
{
    explicit Rig(SecurityMode mode) : cfg(testConfig(mode))
    {
        nvm = std::make_unique<NvmDevice>(cfg.nvm);
        eng = std::make_unique<SecurityEngine>(cfg.secure, *nvm);
        mc = std::make_unique<SecureMemController>(cfg, *nvm, *eng);
    }

    SystemConfig cfg;
    std::unique_ptr<NvmDevice> nvm;
    std::unique_ptr<SecurityEngine> eng;
    std::unique_ptr<SecureMemController> mc;
};

TEST(Controller, NonSecurePersistIsJustTransit)
{
    Rig rig(SecurityMode::NonSecureIdeal);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    EXPECT_EQ(t.persistTick, 1000u + rig.cfg.wpq.mcTransitLatency);
}

TEST(Controller, BaselinePaysFullSecurityBeforePersist)
{
    Rig rig(SecurityMode::PreWpqSecure);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    // At least counter fetch (600) + AES (40) + 10 MACs (1600).
    EXPECT_GE(t.persistTick, 1000u + 600u + 40u + 1600u);
}

TEST(Controller, DolosPartialPaysOneMac)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    EXPECT_EQ(t.persistTick,
              1000u + rig.cfg.wpq.mcTransitLatency + 160u);
}

TEST(Controller, DolosFullPaysTwoMacs)
{
    Rig rig(SecurityMode::DolosFullWpq);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    EXPECT_EQ(t.persistTick,
              1000u + rig.cfg.wpq.mcTransitLatency + 320u);
}

TEST(Controller, DolosPostPersistsImmediately)
{
    Rig rig(SecurityMode::DolosPostWpq);
    const auto t = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    EXPECT_EQ(t.persistTick, 1000u + rig.cfg.wpq.mcTransitLatency);
}

TEST(Controller, DolosPostSecondWriteWaitsForBusyUnit)
{
    Rig rig(SecurityMode::DolosPostWpq);
    const auto t1 = rig.mc->persistBlock(0x1000, pattern(1), 1000);
    // Immediately following write must wait out the deferred MAC.
    const auto t2 = rig.mc->persistBlock(0x1040, pattern(2), 1000);
    EXPECT_GE(t2.persistTick, t1.persistTick + 160u);
}

TEST(Controller, WpqCapacityMatchesMode)
{
    EXPECT_EQ(Rig(SecurityMode::DolosFullWpq).mc->wpqCapacity(), 16u);
    EXPECT_EQ(Rig(SecurityMode::DolosPartialWpq).mc->wpqCapacity(), 13u);
    EXPECT_EQ(Rig(SecurityMode::DolosPostWpq).mc->wpqCapacity(), 10u);
    EXPECT_EQ(Rig(SecurityMode::PreWpqSecure).mc->wpqCapacity(), 16u);
}

TEST(Controller, BurstBeyondCapacityCausesRetries)
{
    // The Post design has the smallest WPQ (10 entries) and accepts
    // writes at the Mi-SU pipeline rate, so a long back-to-back
    // burst overruns the Ma-SU drain latency and must retry.
    Rig rig(SecurityMode::DolosPostWpq);
    Tick t = 0;
    for (int i = 0; i < 60; ++i) {
        const auto tk = rig.mc->persistBlock(Addr(i) * 64, pattern(1), t);
        t = tk.persistTick;
    }
    EXPECT_GT(rig.mc->retryEvents(), 0u);
    EXPECT_EQ(rig.mc->writeRequests(), 60u);
    EXPECT_GT(rig.mc->retriesPerKiloWrites(), 0.0);
}

TEST(Controller, NoRetriesWhenWritesAreSpacedOut)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    Tick t = 0;
    for (int i = 0; i < 40; ++i) {
        rig.mc->persistBlock(Addr(i) * 64, pattern(1), t);
        t += 10000; // far slower than the drain rate
    }
    EXPECT_EQ(rig.mc->retryEvents(), 0u);
}

TEST(Controller, ReadHitsWpqTagArray)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const Block pt = pattern(5);
    const auto tk = rig.mc->persistBlock(0x2000, pt, 0);
    // Read immediately after persist: the entry is still in the WPQ.
    const auto rd = rig.mc->readBlock(0x2000, tk.persistTick + 1);
    EXPECT_EQ(rd.data, pt);
    EXPECT_EQ(rig.mc->wpqReadHits(), 1u);
    // A cheap forward: transit + 1-cycle XOR.
    EXPECT_LE(rd.completeTick - (tk.persistTick + 1),
              rig.cfg.wpq.mcTransitLatency + 1);
}

TEST(Controller, ReadAfterDrainComesFromNvm)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const Block pt = pattern(6);
    rig.mc->persistBlock(0x2000, pt, 0);
    // Long after the drain completes, the read misses the WPQ and
    // decrypts from NVM.
    const auto rd = rig.mc->readBlock(0x2000, 1'000'000);
    EXPECT_EQ(rd.data, pt);
    EXPECT_EQ(rig.mc->wpqReadHits(), 0u);
    EXPECT_FALSE(rig.eng->attackDetected());
}

TEST(Controller, CoalescingMergesBackToBackWrites)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const auto t1 = rig.mc->persistBlock(0x2000, pattern(1), 0);
    const auto t2 = rig.mc->persistBlock(0x2000, pattern(2),
                                         t1.persistTick);
    EXPECT_GE(rig.mc->coalesces(), 1u);
    const auto rd = rig.mc->readBlock(0x2000, t2.persistTick + 1);
    EXPECT_EQ(rd.data, pattern(2));
}

TEST(Controller, CoalescingDisabledAllocatesTwoEntries)
{
    auto cfg = testConfig(SecurityMode::DolosPartialWpq);
    cfg.wpq.coalescing = false;
    NvmDevice nvm(cfg.nvm);
    SecurityEngine eng(cfg.secure, nvm);
    SecureMemController mc(cfg, nvm, eng);
    const auto t1 = mc.persistBlock(0x2000, pattern(1), 0);
    mc.persistBlock(0x2000, pattern(2), t1.persistTick);
    EXPECT_EQ(mc.coalesces(), 0u);
    const auto rd = mc.readBlock(0x2000, t1.persistTick + 1);
    EXPECT_EQ(rd.data, pattern(2)); // newest entry wins
}

// Two queued same-line entries with coalescing off: the ADR dump
// carries both, and recovery must land the newest value.
TEST(Controller, CoalescingOffCrashWhileQueuedRecoversNewestValue)
{
    auto cfg = testConfig(SecurityMode::DolosFullWpq);
    cfg.wpq.coalescing = false;
    NvmDevice nvm(cfg.nvm);
    SecurityEngine eng(cfg.secure, nvm);
    SecureMemController mc(cfg, nvm, eng);
    mc.persistBlock(0x1000, pattern(1), 0);
    mc.persistBlock(0x1000, pattern(2), 10);
    const auto dump = mc.crash(20);
    EXPECT_EQ(dump.entriesDumped, 2u);
    EXPECT_TRUE(mc.recover().misuVerified);
    EXPECT_EQ(mc.readBlock(0x1000, 10'000'000).data, pattern(2));
    EXPECT_FALSE(eng.attackDetected());
}

TEST(Controller, CoalescingOffMidDrainCrashKeepsRedoAccountingExact)
{
    // Crash while some same-line entries have drained and newer ones
    // may still be queued: the dump must never resurrect a stale
    // entry, so recovery lands the newest value of every line.
    for (const auto mode : {SecurityMode::DolosFullWpq,
                            SecurityMode::DolosPartialWpq}) {
        for (const Tick crash_at : {Tick(500), Tick(2'000),
                                    Tick(8'000)}) {
            auto cfg = testConfig(mode);
            cfg.wpq.coalescing = false;
            NvmDevice nvm(cfg.nvm);
            SecurityEngine eng(cfg.secure, nvm);
            SecureMemController mc(cfg, nvm, eng);
            const Addr addrs[] = {0x1000, 0x1000, 0x2000, 0x1000};
            for (unsigned i = 0; i < 4; ++i)
                mc.persistBlock(addrs[i], pattern(std::uint8_t(i + 1)),
                                i * 10);
            mc.crash(crash_at);
            EXPECT_TRUE(mc.recover().misuVerified);
            EXPECT_EQ(mc.readBlock(0x1000, 10'000'000).data, pattern(4))
                << "mode=" << int(mode) << " crash_at=" << crash_at;
            EXPECT_EQ(mc.readBlock(0x2000, 10'000'000).data, pattern(3))
                << "mode=" << int(mode) << " crash_at=" << crash_at;
            EXPECT_FALSE(eng.attackDetected());
        }
    }
}

TEST(Controller, PendingPersistTickSeesInFlightWrite)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const auto tk = rig.mc->persistBlock(0x2000, pattern(1), 0);
    EXPECT_EQ(rig.mc->pendingPersistTick(0x2000, 1), tk.persistTick);
    EXPECT_EQ(rig.mc->pendingPersistTick(0x9000, 1), 1u);
}

TEST(Controller, CrashDumpsUndrainedEntriesWithinBudget)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    Tick t = 0;
    for (int i = 0; i < 8; ++i) {
        const auto tk = rig.mc->persistBlock(Addr(i) * 64, pattern(1), t);
        t = tk.persistTick;
    }
    // Crash immediately: most entries have not drained.
    const auto dump = rig.mc->crash(t);
    EXPECT_GT(dump.entriesDumped, 0u);
    EXPECT_TRUE(dump.withinAdrBudget);
}

TEST(Controller, CrashLongAfterQuiesceDumpsNothing)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    rig.mc->persistBlock(0x1000, pattern(1), 0);
    const auto dump = rig.mc->crash(10'000'000);
    EXPECT_EQ(dump.entriesDumped, 0u);
}

TEST(Controller, RecoveryRestoresUndrainedWrites)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    Tick t = 0;
    std::vector<std::pair<Addr, Block>> writes;
    for (int i = 0; i < 6; ++i) {
        const Addr a = Addr(i) * 64;
        const Block pt = pattern(std::uint8_t(10 + i));
        const auto tk = rig.mc->persistBlock(a, pt, t);
        t = tk.persistTick;
        writes.emplace_back(a, pt);
    }
    rig.mc->crash(t);
    const auto rec = rig.mc->recover();
    EXPECT_TRUE(rec.misuVerified);
    EXPECT_TRUE(rec.engine.rootVerified);

    Tick rt = 100'000'000;
    for (const auto &[a, pt] : writes) {
        const auto rd = rig.mc->readBlock(a, rt);
        EXPECT_EQ(rd.data, pt) << std::hex << a;
        rt = rd.completeTick;
    }
    EXPECT_FALSE(rig.eng->attackDetected());
}

TEST(Controller, WithoutAdrDumpUndrainedDataWouldBeLost)
{
    // Negative control: the dump region is wiped before recovery, so
    // the persist-acked (but undrained) write must NOT be readable —
    // demonstrating the dump is what preserves it.
    Rig rig(SecurityMode::DolosPartialWpq);
    const Block pt = pattern(3);
    const auto tk = rig.mc->persistBlock(0x3000, pt, 0);
    rig.mc->crash(tk.persistTick);
    rig.nvm->writeFunctional(AddressMap::wpqDumpBase, zeroBlock());
    const auto rec = rig.mc->recover();
    EXPECT_EQ(rec.entriesRecovered, 0u);
    const auto rd = rig.mc->readBlock(0x3000, 100'000'000);
    EXPECT_NE(rd.data, pt);
}

TEST(Controller, TamperedDumpIsDetected)
{
    Rig rig(SecurityMode::DolosPartialWpq);
    const auto tk = rig.mc->persistBlock(0x3000, pattern(4), 0);
    rig.mc->crash(tk.persistTick);
    // Flip one bit of the first dumped entry's ciphertext.
    const Addr e0 = AddressMap::wpqDumpAddr(1);
    Block b = rig.nvm->readFunctional(e0);
    b[0] ^= 1;
    rig.nvm->writeFunctional(e0, b);
    const auto rec = rig.mc->recover();
    EXPECT_FALSE(rec.misuVerified);
    EXPECT_EQ(rec.entriesRecovered, 0u);
}

TEST(Controller, TamperedDumpDetectedByFullWpqRoot)
{
    Rig rig(SecurityMode::DolosFullWpq);
    const auto tk = rig.mc->persistBlock(0x3000, pattern(4), 0);
    rig.mc->crash(tk.persistTick);
    const Addr e0 = AddressMap::wpqDumpAddr(1);
    Block b = rig.nvm->readFunctional(e0);
    b[9] ^= 0x20;
    rig.nvm->writeFunctional(e0, b);
    const auto rec = rig.mc->recover();
    EXPECT_FALSE(rec.misuVerified);
}

TEST(Controller, RecoveryAcrossAllDolosModes)
{
    for (const auto mode : {SecurityMode::DolosFullWpq,
                            SecurityMode::DolosPartialWpq,
                            SecurityMode::DolosPostWpq}) {
        Rig rig(mode);
        const Block pt = pattern(9);
        const auto tk = rig.mc->persistBlock(0x4000, pt, 0);
        rig.mc->crash(tk.persistTick);
        const auto rec = rig.mc->recover();
        EXPECT_TRUE(rec.misuVerified) << securityModeName(mode);
        const auto rd = rig.mc->readBlock(0x4000, 100'000'000);
        EXPECT_EQ(rd.data, pt) << securityModeName(mode);
    }
}

TEST(Controller, BaselineCrashNeedsNoDumpRegion)
{
    Rig rig(SecurityMode::PreWpqSecure);
    const Block pt = pattern(8);
    const auto tk = rig.mc->persistBlock(0x5000, pt, 0);
    rig.mc->crash(tk.persistTick);
    const auto rec = rig.mc->recover();
    EXPECT_TRUE(rec.engine.rootVerified);
    const auto rd = rig.mc->readBlock(0x5000, 100'000'000);
    EXPECT_EQ(rd.data, pt);
}

TEST(Controller, PostWpqUnprotectedCrashViolatesAdrBudget)
{
    Rig rig(SecurityMode::PostWpqUnprotected);
    const auto tk = rig.mc->persistBlock(0x1000, pattern(1), 0);
    const auto dump = rig.mc->crash(tk.persistTick);
    EXPECT_FALSE(dump.withinAdrBudget);
}

TEST(Controller, ModeledRecoveryCyclesMatchPaperFullWpq)
{
    // §5.5: 16 * (600 + 40 + 2100 + 40) = 44480 cycles for Full.
    // Partial and Post also read back 2 MAC blocks: 15 * 600 +
    // 13 * 2180 = 37340 and 12 * 600 + 10 * 2180 = 29000.
    const std::pair<SecurityMode, Cycles> cases[] = {
        {SecurityMode::DolosFullWpq, 44480},
        {SecurityMode::DolosPartialWpq, 37340},
        {SecurityMode::DolosPostWpq, 29000}};
    for (const auto &[mode, cycles] : cases) {
        Rig rig(mode);
        const auto tk = rig.mc->persistBlock(0x1000, pattern(1), 0);
        rig.mc->crash(tk.persistTick);
        const auto rec = rig.mc->recover();
        EXPECT_EQ(rec.modeledRecoveryCycles, cycles)
            << securityModeName(mode);
    }
}

TEST(Controller, FullWpqDumpFitsAdrBudgetPerDesign)
{
    // Paper §4: a full WPQ dumps the header block plus 72B entries
    // (Full), 80B entries (Partial) or 80B entries and the 252B
    // deferred-MAC reserve (Post) -- each within the 16 x 72B budget.
    const std::pair<SecurityMode, unsigned> cases[] = {
        {SecurityMode::DolosFullWpq, 64 + 16 * 72},
        {SecurityMode::DolosPartialWpq, 64 + 13 * 80},
        {SecurityMode::DolosPostWpq, 64 + 10 * 80 + 252}};
    for (const auto &[mode, bytes] : cases) {
        Rig rig(mode);
        const unsigned cap = rig.mc->wpqCapacity();
        for (unsigned i = 0; i < cap; ++i)
            rig.mc->persistBlock(Addr(i) * 64, pattern(2), 0);
        const auto dump = rig.mc->crash(0);
        EXPECT_EQ(dump.entriesDumped, cap) << securityModeName(mode);
        EXPECT_EQ(dump.energyBytes, bytes) << securityModeName(mode);
        EXPECT_LE(dump.energyBytes, 64u + 16 * 72)
            << securityModeName(mode);
        EXPECT_TRUE(dump.withinAdrBudget) << securityModeName(mode);
    }
}

TEST(Controller, ForgedDumpCountFailsAuthentication)
{
    // The dump header's entry count lives in NVM. A count larger
    // than the WPQ is forged: recovery must reject it without
    // reading (or allocating) a single entry.
    for (const auto mode :
         {SecurityMode::DolosPartialWpq, SecurityMode::DolosFullWpq}) {
        for (const bool huge : {false, true}) {
            Rig rig(mode);
            const auto tk = rig.mc->persistBlock(0x3000, pattern(4), 0);
            rig.mc->crash(tk.persistTick);
            Block header = rig.nvm->readFunctional(AddressMap::wpqDumpBase);
            storeWord(header, 8,
                      huge ? std::uint64_t(1) << 40
                           : rig.mc->wpqCapacity() + 1);
            rig.nvm->writeFunctional(AddressMap::wpqDumpBase, header);
            const auto rec = rig.mc->recover();
            EXPECT_FALSE(rec.misuVerified) << securityModeName(mode);
            EXPECT_EQ(rec.entriesRecovered, 0u) << securityModeName(mode);
            EXPECT_TRUE(rig.eng->attackDetected())
                << securityModeName(mode);
        }
    }
}

} // namespace
