/**
 * @file
 * Security engine tests: functional encryption/integrity, timing
 * composition, attack detection, crash recovery.
 */

#include <gtest/gtest.h>

#include "secure/security_engine.hh"
#include "sim/random.hh"

namespace
{

using namespace dolos;

SecureParams
testParams()
{
    SecureParams p;
    p.functionalLeaves = 256; // 1 MB protected heap for tests
    p.map.protectedBytes = Addr(256) * pageBytes;
    // Small metadata caches so evictions happen in tests.
    p.counterCache = {"counterCache", 4 * 1024, 4};
    p.mtCache = {"mtCache", 4 * 1024, 8};
    // These tests pin the paper's serial latency composition; the
    // (now default-on) bmtPipeline lever is covered by
    // bmt_pipeline_test.
    p.bmtPipeline = false;
    for (int i = 0; i < 16; ++i) {
        p.dataKey[i] = std::uint8_t(i + 1);
        p.macKey[i] = std::uint8_t(0x80 + i);
    }
    return p;
}

Block
pattern(std::uint8_t seed)
{
    Block b;
    for (unsigned i = 0; i < blockSize; ++i)
        b[i] = std::uint8_t(seed ^ (i * 3));
    return b;
}

struct SecurityEngineTest : ::testing::Test
{
    NvmDevice nvm{NvmParams{}};
    SecurityEngine eng{testParams(), nvm};

    /** Full write path: security ops + ciphertext to NVM. */
    Tick
    writeThrough(Addr addr, const Block &pt, Tick now)
    {
        const auto r = eng.secureWrite(addr, pt, now);
        return eng.writeCiphertext(addr, r.ciphertext, r.doneTick);
    }
};

TEST_F(SecurityEngineTest, CiphertextIsNotPlaintext)
{
    const Block pt = pattern(1);
    const auto r = eng.secureWrite(0x1000, pt, 0);
    EXPECT_NE(r.ciphertext, pt);
    EXPECT_EQ(r.counter, 1u);
}

TEST_F(SecurityEngineTest, ReadDecryptsWhatWasWritten)
{
    const Block pt = pattern(2);
    writeThrough(0x2000, pt, 0);
    const auto rd = eng.secureRead(0x2000, 100000);
    EXPECT_EQ(rd.data, pt);
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, SamePlaintextDifferentCiphertextOverWrites)
{
    // Temporal uniqueness: rewriting identical plaintext yields a
    // different ciphertext because the counter advanced.
    const Block pt = pattern(3);
    const auto r1 = eng.secureWrite(0x3000, pt, 0);
    const auto r2 = eng.secureWrite(0x3000, pt, r1.doneTick);
    EXPECT_NE(r1.ciphertext, r2.ciphertext);
    EXPECT_EQ(r2.counter, r1.counter + 1);
}

TEST_F(SecurityEngineTest, SamePlaintextDifferentCiphertextAcrossAddrs)
{
    // Spatial uniqueness.
    const Block pt = pattern(4);
    const auto r1 = eng.secureWrite(0x4000, pt, 0);
    const auto r2 = eng.secureWrite(0x5000, pt, r1.doneTick);
    EXPECT_NE(r1.ciphertext, r2.ciphertext);
}

TEST_F(SecurityEngineTest, WriteLatencyCompositionEager)
{
    // Counter-cache hit path: AES (40) + 10 MACs (1600) = 1640.
    writeThrough(0x1000, pattern(0), 0); // warms counter cache (miss)
    const Tick busy = eng.busyUntil();
    const auto r = eng.secureWrite(0x1000, pattern(1), busy);
    EXPECT_EQ(r.doneTick - busy, 40u + 10u * 160u);
}

TEST_F(SecurityEngineTest, WriteLatencyCompositionLazy)
{
    auto p = testParams();
    p.treePolicy = TreeUpdatePolicy::LazyToc;
    NvmDevice nvm2{NvmParams{}};
    SecurityEngine lazy(p, nvm2);
    lazy.secureWrite(0x1000, pattern(0), 0);
    const Tick busy = lazy.busyUntil();
    const auto r = lazy.secureWrite(0x1000, pattern(1), busy);
    EXPECT_EQ(r.doneTick - busy, 40u + 4u * 160u);
}

TEST_F(SecurityEngineTest, ColdCounterMissAddsNvmFetch)
{
    // First-ever access: counter block fetch (600) + tree walk.
    const auto r = eng.secureWrite(0x1000, pattern(0), 0);
    EXPECT_GE(r.doneTick, 600u + 40u + 1600u);
}

TEST_F(SecurityEngineTest, SerialEngineFullySerializesWrites)
{
    // Default (paper) model: back-to-back writes each occupy the
    // engine for the full security latency.
    const auto r1 = eng.secureWrite(0x1000, pattern(0), 0);
    const auto r2 = eng.secureWrite(0x1040, pattern(1), 10);
    EXPECT_GE(r2.doneTick, r1.doneTick + 40 + 1600);
}

TEST_F(SecurityEngineTest, PipelinedEngineIssuesEveryMacSlot)
{
    // bmtPipeline's per-level engines free the engine front one MAC
    // slot (160 cycles) after a write's metadata is ready, long before
    // the write's climb completes; the serial engine stays busy until
    // the write is done. Same page: the second write hits the counter
    // cache, so its metadata is ready the moment the front frees.
    auto p = testParams();
    p.bmtPipeline = true;
    NvmDevice nvm2{NvmParams{}};
    SecurityEngine piped(p, nvm2);
    const auto r1 = piped.secureWrite(0x1000, pattern(0), 0);
    const Tick front1 = piped.busyUntil();
    // Crypto started one slot before the front freed; the write
    // itself still takes the full serial AES + 10 MAC composition.
    EXPECT_EQ(r1.doneTick - (front1 - 160), 40u + 10u * 160u);
    piped.secureWrite(0x1040, pattern(1), 10);
    EXPECT_EQ(piped.busyUntil(), front1 + 160);

    const auto s1 = eng.secureWrite(0x1000, pattern(0), 0);
    EXPECT_EQ(eng.busyUntil(), s1.doneTick);
}

TEST_F(SecurityEngineTest, TamperedCiphertextDetectedOnRead)
{
    writeThrough(0x2000, pattern(5), 0);
    Block ct = nvm.readFunctional(0x2000);
    ct[7] ^= 0x40;
    nvm.writeFunctional(0x2000, ct);
    eng.secureRead(0x2000, 100000);
    EXPECT_TRUE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, SpoofedMacDetectedOnRead)
{
    writeThrough(0x2000, pattern(5), 0);
    const Addr mac_block = AddressMap::macBlockAddr(0x2000);
    Block mb = nvm.readFunctional(mac_block);
    mb[AddressMap::macOffsetInBlock(0x2000)] ^= 1;
    nvm.writeFunctional(mac_block, mb);
    eng.secureRead(0x2000, 100000);
    EXPECT_TRUE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, RelocatedCiphertextDetectedOnRead)
{
    // Copy block A's ciphertext and MAC over block B: the MAC binds
    // the address, so the relocation is detected.
    writeThrough(0x2000, pattern(6), 0);
    writeThrough(0x6000, pattern(7), 50000);
    const Block ct_a = nvm.readFunctional(0x2000);
    nvm.writeFunctional(0x6000, ct_a);
    const Addr mac_a = AddressMap::macBlockAddr(0x2000);
    const Addr mac_b = AddressMap::macBlockAddr(0x6000);
    Block mb = nvm.readFunctional(mac_b);
    const Block ma = nvm.readFunctional(mac_a);
    std::memcpy(mb.data() + AddressMap::macOffsetInBlock(0x6000),
                ma.data() + AddressMap::macOffsetInBlock(0x2000), 8);
    nvm.writeFunctional(mac_b, mb);
    eng.secureRead(0x6000, 200000);
    EXPECT_TRUE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, ReplayedDataDetectedOnRead)
{
    // Capture (ciphertext, MAC) after write 1, restore after write 2.
    writeThrough(0x2000, pattern(8), 0);
    const Block old_ct = nvm.readFunctional(0x2000);
    const Block old_mac = nvm.readFunctional(
        AddressMap::macBlockAddr(0x2000));
    writeThrough(0x2000, pattern(9), 100000);
    nvm.writeFunctional(0x2000, old_ct);
    nvm.writeFunctional(AddressMap::macBlockAddr(0x2000), old_mac);
    eng.secureRead(0x2000, 300000);
    EXPECT_TRUE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, ColdReadReturnsZeros)
{
    const auto rd = eng.secureRead(0x7000, 0);
    EXPECT_EQ(rd.data, zeroBlock());
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, RecoveryRestoresCountersAndRoot)
{
    Random rng(11);
    std::vector<std::pair<Addr, Block>> writes;
    Tick t = 0;
    for (int i = 0; i < 50; ++i) {
        const Addr addr = blockAlign(rng.below(200 * pageBytes));
        const Block pt = pattern(std::uint8_t(i));
        t = writeThrough(addr, pt, t);
        writes.emplace_back(addr, pt);
    }
    const auto root_before = eng.persistentRoot();

    eng.crash();
    const auto rec = eng.recover();
    EXPECT_TRUE(rec.rootVerified);
    EXPECT_FALSE(rec.shadowTamper);
    EXPECT_EQ(eng.persistentRoot(), root_before);

    // All data remains readable and intact after recovery.
    Tick rt = 1'000'000'000;
    for (const auto &[addr, pt] : writes) {
        const auto rd = eng.secureRead(addr, rt);
        EXPECT_EQ(rd.data, pt) << std::hex << addr;
        rt = rd.completeTick;
    }
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, RecoveryDetectsTamperedCounterRegion)
{
    writeThrough(0x1000, pattern(1), 0);
    eng.crash();
    // Tamper with both the NVM counter block and the shadow region
    // (erase the slot marker) so neither source is authentic.
    const Addr cb = AddressMap::counterBlockAddr(0x1000);
    Block b = nvm.readFunctional(cb);
    b[0] ^= 1;
    nvm.writeFunctional(cb, b);
    for (std::size_t s = 0; s < 1024; ++s)
        nvm.writeFunctional(AddressMap::shadowSlotAddr(s), zeroBlock());
    // Also clear shadow metadata blocks.
    for (std::size_t s = 0; s < 1024; ++s)
        nvm.writeFunctional(AddressMap::shadowSlotAddr(s) + blockSize,
                            zeroBlock());
    const auto rec = eng.recover();
    EXPECT_FALSE(rec.rootVerified);
    EXPECT_TRUE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, RecoveryUsesShadowForDirtyCachedCounters)
{
    // Write twice to the same block; the counter block is dirty in
    // the counter cache (never evicted). After a crash the NVM
    // counter region is stale; the shadow entry must supply the
    // up-to-date counter, or decryption would fail.
    const Block pt = pattern(10);
    Tick t = writeThrough(0x1000, pattern(0), 0);
    t = writeThrough(0x1000, pt, t);
    eng.crash();
    const auto rec = eng.recover();
    EXPECT_TRUE(rec.rootVerified);
    EXPECT_GE(rec.shadowApplied, 1u);
    const auto rd = eng.secureRead(0x1000, 10'000'000);
    EXPECT_EQ(rd.data, pt);
}

TEST_F(SecurityEngineTest, PageReencryptionAfterMinorOverflow)
{
    // Drive one block past 127 writes to overflow the minors, then
    // check that a *sibling* block (written once, long before) is
    // still readable -- its ciphertext was re-encrypted under the
    // new major counter.
    const Block sibling = pattern(20);
    Tick t = writeThrough(0x0, sibling, 0);
    const Block hot = pattern(21);
    for (int i = 0; i < 128; ++i)
        t = writeThrough(0x40, hot, t);

    const auto rd1 = eng.secureRead(0x0, t + 1000);
    EXPECT_EQ(rd1.data, sibling);
    const auto rd2 = eng.secureRead(0x40, rd1.completeTick);
    EXPECT_EQ(rd2.data, hot);
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, CounterCacheHitsTrackLocality)
{
    Tick t = writeThrough(0x0, pattern(0), 0);
    writeThrough(0x40, pattern(1), t); // same page: counter hit
    EXPECT_EQ(eng.counterCacheMisses(), 1u);
    EXPECT_EQ(eng.counterCacheHits(), 1u);
}

TEST_F(SecurityEngineTest, TransientMediaFaultHealsWithoutAlarm)
{
    const Block pt = pattern(13);
    writeThrough(0x1000, pt, 0);
    nvm.injectTransientFlip(0x1000, 5);

    const auto rd = eng.secureRead(0x1000, 100000);
    // Device-flagged corruption is a media problem: retried, healed,
    // and never escalated to the tamper alarm.
    EXPECT_EQ(rd.data, pt);
    EXPECT_FALSE(eng.attackDetected());
    EXPECT_EQ(nvm.mediaRetries(), 1u);
    EXPECT_EQ(nvm.mediaHealed(), 1u);
    EXPECT_EQ(nvm.quarantineCount(), 0u);
}

TEST_F(SecurityEngineTest, StuckCellQuarantinesWithoutAlarm)
{
    const Block pt = pattern(14);
    writeThrough(0x2000, pt, 0);
    const Block stored = nvm.readFunctional(0x2000);
    const bool bit3 = stored[0] & 0x08;
    nvm.injectStuckBit(0x2000, 3, !bit3);

    const auto rd = eng.secureRead(0x2000, 100000);
    // Unhealable, device-flagged: graceful degradation, not tamper.
    EXPECT_FALSE(eng.attackDetected());
    EXPECT_TRUE(nvm.isQuarantined(0x2000));
    EXPECT_EQ(nvm.mediaRetries(), nvm.config().mediaRetryLimit);
    EXPECT_EQ(nvm.mediaHealed(), 0u);
    EXPECT_EQ(rd.data, zeroBlock());

    // Later reads of the quarantined block short-circuit to zeros.
    const auto again = eng.secureRead(0x2000, 500000);
    EXPECT_EQ(again.data, zeroBlock());
    EXPECT_EQ(eng.quarantineReads(), 1u);
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(SecurityEngineTest, TamperWithoutMediaFlagStillAlarms)
{
    // The disambiguation must not weaken the threat model: a MAC
    // mismatch on a *clean* device read is an integrity attack.
    const Block pt = pattern(15);
    writeThrough(0x3000, pt, 0);
    Block ct = nvm.readFunctional(0x3000);
    ct[7] ^= 0x10; // adversarial mutation leaves no device trace
    nvm.writeFunctional(0x3000, ct);

    eng.secureRead(0x3000, 100000);
    EXPECT_TRUE(eng.attackDetected());
    EXPECT_EQ(nvm.mediaRetries(), 0u);
    EXPECT_EQ(nvm.quarantineCount(), 0u);
}

TEST_F(SecurityEngineTest, WriteFailuresRetryThenQuarantine)
{
    const Block pt = pattern(16);
    // Fewer failures than the retry budget: the write heals.
    nvm.injectWriteFail(0x4000, 2);
    writeThrough(0x4000, pt, 0);
    EXPECT_EQ(nvm.mediaHealed(), 1u);
    EXPECT_FALSE(nvm.isQuarantined(0x4000));
    const auto rd = eng.secureRead(0x4000, 1000000);
    EXPECT_EQ(rd.data, pt);

    // More failures than the budget: the block is quarantined, and
    // the alarm still stays silent (worn cells, not an adversary).
    nvm.injectWriteFail(0x5000, 16);
    writeThrough(0x5000, pattern(17), 2000000);
    EXPECT_TRUE(nvm.isQuarantined(0x5000));
    EXPECT_FALSE(eng.attackDetected());
}

} // namespace
