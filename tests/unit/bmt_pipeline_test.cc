/**
 * @file
 * BMT update pipeline tests: path-overlap detection against the
 * in-flight window, coalesce-window edge cases, and the root-
 * updated-last ordering invariant. Timing-only: the functional
 * write path must be bit-identical with the pipeline on or off.
 */

#include <gtest/gtest.h>

#include "secure/security_engine.hh"
#include "workloads/runner.hh"

namespace
{

using namespace dolos;

SecureParams
testParams(bool pipeline)
{
    SecureParams p;
    p.functionalLeaves = 256;
    p.map.protectedBytes = Addr(256) * pageBytes;
    p.counterCache = {"counterCache", 4 * 1024, 4};
    p.mtCache = {"mtCache", 4 * 1024, 8};
    p.bmtPipeline = pipeline;
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

// Eager tree: 10 write MAC ops = 1 data MAC + 9 BMT levels.
constexpr unsigned kBmtLevels = 9;
constexpr Tick kMac = 160; // SecureParams::macLatency default

struct PipelineRig
{
    explicit PipelineRig(bool pipeline) : eng(testParams(pipeline), nvm)
    {
    }

    NvmDevice nvm{NvmParams{}};
    SecurityEngine eng;
};

TEST(BmtPipeline, OffChargesFullSerialClimb)
{
    PipelineRig rig(false);
    rig.eng.secureWrite(0x0000, pattern(1), 0);
    rig.eng.secureWrite(0x0040, pattern(2), 0);
    EXPECT_EQ(rig.eng.bmtCycles(), 2 * kBmtLevels * kMac);
    EXPECT_EQ(rig.eng.bmtCoalescedUpdates(), 0u);
}

TEST(BmtPipeline, SamePagePathFullyCoalesces)
{
    PipelineRig rig(true);
    rig.eng.secureWrite(0x0000, pattern(1), 0);
    rig.eng.secureWrite(0x0040, pattern(2), 0);
    // The second climb shares the entire leaf-to-root path with the
    // in-flight first climb: all 9 levels coalesce, none charged.
    EXPECT_EQ(rig.eng.bmtCycles(), kBmtLevels * kMac);
    EXPECT_EQ(rig.eng.bmtCoalescedUpdates(), kBmtLevels);
}

/**
 * Write each page once so its counter block is cached, then jump far
 * enough ahead that the warm-up climbs have retired. Rewrites after
 * this hit the counter cache, so consecutive climbs start a couple
 * hundred cycles apart — well inside each other's 9x160-cycle window.
 */
Tick
warmPages(PipelineRig &rig, std::initializer_list<Addr> addrs)
{
    for (const Addr a : addrs)
        rig.eng.secureWrite(a, pattern(0x55), 0);
    return 10'000'000;
}

TEST(BmtPipeline, OverlapStartsAtFirstSharedAncestor)
{
    PipelineRig rig(true);
    const Tick t0 = warmPages(rig, {0x0000, 0x7000, 0x8000});
    const auto base = rig.eng.bmtCoalescedUpdates();

    rig.eng.secureWrite(0x0000, pattern(1), t0);
    EXPECT_EQ(rig.eng.bmtCoalescedUpdates() - base, 0u);

    // Pages 0 and 7 share their level-1 ancestor (0 >> 3 == 7 >> 3)
    // but not the leaf: 8 of 9 levels coalesce, 1 is charged.
    rig.eng.secureWrite(0x7000, pattern(2), t0);
    EXPECT_EQ(rig.eng.bmtCoalescedUpdates() - base, kBmtLevels - 1);

    // Page 8 first meets either in-flight path at level 2
    // (8 >> 6 == 0 == 0 >> 6): 7 more levels coalesce, 2 charged.
    rig.eng.secureWrite(0x8000, pattern(3), t0);
    EXPECT_EQ(rig.eng.bmtCoalescedUpdates() - base,
              (kBmtLevels - 1) + (kBmtLevels - 2));
}

TEST(BmtPipeline, RetiredClimbsDoNotCoalesce)
{
    PipelineRig rig(true);
    rig.eng.secureWrite(0x0000, pattern(1), 0);
    // By 1M cycles the first climb's root update has long finished;
    // nothing is in flight, so the full serial climb is charged.
    rig.eng.secureWrite(0x0040, pattern(2), 1'000'000);
    EXPECT_EQ(rig.eng.bmtCycles(), 2 * kBmtLevels * kMac);
    EXPECT_EQ(rig.eng.bmtCoalescedUpdates(), 0u);
}

TEST(BmtPipeline, WindowEvictsOldestClimb)
{
    static_assert(SecurityEngine::bmtWindowClimbs == 4);
    // Pages 8..32 share 7 levels with page 0 (they first meet it at
    // level 2), so a rewrite of page 0 can join its own earlier climb
    // (all 9 levels) only while that climb is still in the window.
    const auto rewriteCoalesces = [](std::initializer_list<Addr> others) {
        PipelineRig rig(true);
        const Tick t0 = warmPages(rig, {0x0000, 0x8000, 0x10000,
                                        0x18000, 0x20000});
        rig.eng.secureWrite(0x0000, pattern(1), t0);
        for (const Addr a : others)
            rig.eng.secureWrite(a, pattern(2), t0);
        const auto before = rig.eng.bmtCoalescedUpdates();
        rig.eng.secureWrite(0x0040, pattern(3), t0);
        return rig.eng.bmtCoalescedUpdates() - before;
    };
    // Three later climbs: page 0's is one of the four in flight.
    EXPECT_EQ(rewriteCoalesces({0x8000, 0x10000, 0x18000}), kBmtLevels);
    // Four later climbs fill the window and evict page 0's, so the
    // rewrite can only join one of theirs.
    EXPECT_EQ(rewriteCoalesces({0x8000, 0x10000, 0x18000, 0x20000}),
              kBmtLevels - 2);
}

TEST(BmtPipeline, RootIsAlwaysUpdatedLast)
{
    // A coalesced climb joins an in-flight path *below* the root, so
    // its own root update cannot complete before the climb it joined
    // finishes updating the root. With a full-path overlap the
    // joining write inherits the in-flight climb's completion tick.
    PipelineRig rig(true);
    const auto r1 = rig.eng.secureWrite(0x0000, pattern(1), 0);
    const auto r2 = rig.eng.secureWrite(0x0040, pattern(2), 0);
    EXPECT_EQ(r2.doneTick, r1.doneTick);

    // Partial overlap: the join bound still holds (never earlier
    // than the joined climb's root update).
    const auto r3 = rig.eng.secureWrite(0x7000, pattern(3), 0);
    EXPECT_GE(r3.doneTick, r2.doneTick);
}

TEST(BmtPipeline, FunctionalWritePathIsUnchanged)
{
    PipelineRig off(false);
    PipelineRig on(true);
    const Addr addrs[] = {0x0000, 0x0040, 0x7000, 0x8000, 0x0040};
    for (unsigned i = 0; i < 5; ++i) {
        const Block pt = pattern(std::uint8_t(i + 1));
        const auto ro = off.eng.secureWrite(addrs[i], pt, 0);
        const auto rn = on.eng.secureWrite(addrs[i], pt, 0);
        // Same ciphertext, counter, and MAC: the pipeline elides
        // modeled latency only, never the cryptographic work.
        EXPECT_EQ(ro.ciphertext, rn.ciphertext);
        EXPECT_EQ(ro.counter, rn.counter);
        EXPECT_EQ(ro.macTag, rn.macTag);
        off.eng.writeCiphertext(addrs[i], ro.ciphertext, ro.doneTick);
        on.eng.writeCiphertext(addrs[i], rn.ciphertext, rn.doneTick);
    }
    for (unsigned i = 0; i < 4; ++i) {
        const auto rd_off = off.eng.secureRead(addrs[i], 10'000'000);
        const auto rd_on = on.eng.secureRead(addrs[i], 10'000'000);
        EXPECT_EQ(rd_off.data, rd_on.data);
    }
    EXPECT_FALSE(off.eng.attackDetected());
    EXPECT_FALSE(on.eng.attackDetected());
    EXPECT_GT(on.eng.bmtCoalescedUpdates(), 0u);
}

TEST(BmtPipeline, CrashClearsInflightWindow)
{
    PipelineRig rig(true);
    const auto r1 = rig.eng.secureWrite(0x0000, pattern(1), 0);
    rig.eng.writeCiphertext(0x0000, r1.ciphertext, r1.doneTick);
    rig.eng.crash();
    ASSERT_TRUE(rig.eng.recover().rootVerified);
    // The window is volatile: after power loss nothing is in flight,
    // so the next climb is charged in full even if issued "early".
    const auto before = rig.eng.bmtCycles();
    rig.eng.secureWrite(0x0040, pattern(2), 0);
    EXPECT_EQ(rig.eng.bmtCycles() - before, kBmtLevels * kMac);
    EXPECT_EQ(rig.eng.bmtCoalescedUpdates(), 0u);
}

TEST(BmtPipeline, ToggleChangesDolosPartialCyclesPerTx)
{
    // bmtPipeline is the one backend-pipelining setting, so on the
    // paper's default machine flipping it must move Dolos-Partial's
    // end-to-end cycles/tx — the premise of bench/ablation_pipeline.
    const auto cyclesPerTx = [](bool pipeline) {
        auto cfg = SystemConfig::paperDefault();
        cfg.mode = SecurityMode::DolosPartialWpq;
        cfg.secure.bmtPipeline = pipeline;
        System sys(cfg);
        workloads::WorkloadParams p;
        p.numKeys = 256;
        p.thinkTime = 60800; // the bench preset for 1 KB hashmap tx
        p.readsPerTx = 1;
        auto wl = workloads::makeWorkload("hashmap", p);
        const auto res = workloads::runWorkload(sys, *wl, 60);
        EXPECT_TRUE(res.verified) << res.verifyDiagnostic;
        return res.cyclesPerTx();
    };
    EXPECT_NE(cyclesPerTx(false), cyclesPerTx(true));
}

} // namespace
