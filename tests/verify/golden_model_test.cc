/**
 * @file
 * GoldenModel state-machine tests (driving the observer callbacks
 * directly) plus end-to-end differential checks on a real machine,
 * including the oracle-sensitivity guarantee: a silently dropped
 * CLWB must surface as a committed-prefix violation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dolos/system.hh"
#include "tests/integration/integration_common.hh"
#include "verify/diff_oracle.hh"
#include "verify/fault_injector.hh"

namespace
{

using namespace dolos;
using namespace dolos::verify;

void
store8(GoldenModel &m, Addr addr, std::uint8_t v)
{
    m.onStore(addr, &v, 1);
}

void
load8(GoldenModel &m, Addr addr, std::uint8_t v)
{
    m.onLoad(addr, &v, 1);
}

TEST(GoldenModel, UntouchedBytesMustReadZero)
{
    GoldenModel m;
    EXPECT_EQ(m.classify(0x100), ByteClass::Untouched);
    load8(m, 0x100, 0x00);
    EXPECT_TRUE(m.clean());
    load8(m, 0x100, 0x5A);
    EXPECT_EQ(m.violationCount(), 1u);
    ASSERT_FALSE(m.diagnostics().empty());
}

TEST(GoldenModel, CoherentLoadSeesLatestStore)
{
    GoldenModel m;
    store8(m, 0x40, 0x11);
    store8(m, 0x40, 0x22);
    load8(m, 0x40, 0x22);
    EXPECT_TRUE(m.clean());
    load8(m, 0x40, 0x11); // stale: the machine would be incoherent
    EXPECT_EQ(m.violationCount(), 1u);
}

TEST(GoldenModel, CommittedByteIsExactAfterCrash)
{
    GoldenModel m;
    store8(m, 0x80, 0x33);
    m.onClwb(0x80);
    m.onSfence();
    EXPECT_EQ(m.classify(0x80), ByteClass::Committed);
    m.onCrash();
    EXPECT_EQ(m.classify(0x80), ByteClass::Committed);
    load8(m, 0x80, 0x33);
    EXPECT_TRUE(m.clean());
    load8(m, 0x80, 0x00); // committed data lost: violation
    EXPECT_EQ(m.violationCount(), 1u);
}

TEST(GoldenModel, CrashForksAdmissibleSetAndFirstLoadPins)
{
    GoldenModel m;
    store8(m, 0xC0, 0x01);
    m.onClwb(0xC0);
    m.onSfence(); // floor = 0x01
    store8(m, 0xC0, 0x02); // in flight at the crash
    m.onCrash();
    EXPECT_EQ(m.classify(0xC0), ByteClass::InFlight);
    EXPECT_EQ(m.crashesSeen(), 1u);

    // Either value is admissible; 0x03 never existed.
    load8(m, 0xC0, 0x02);
    EXPECT_TRUE(m.clean());
    EXPECT_EQ(m.classify(0xC0), ByteClass::Committed);
    // The first observation pinned 0x02: flipping back is a bug.
    load8(m, 0xC0, 0x01);
    EXPECT_EQ(m.violationCount(), 1u);
}

TEST(GoldenModel, NeverHeldValueIsInadmissibleAfterCrash)
{
    GoldenModel m;
    store8(m, 0xC0, 0x01);
    m.onClwb(0xC0);
    m.onSfence();
    store8(m, 0xC0, 0x02);
    m.onCrash();
    load8(m, 0xC0, 0x03);
    EXPECT_EQ(m.violationCount(), 1u);
}

TEST(GoldenModel, SfenceCommitsOnlyTheFlushedSnapshot)
{
    GoldenModel m;
    store8(m, 0x40, 0x0A);
    m.onClwb(0x40);
    store8(m, 0x40, 0x0B); // after the CLWB: not covered by it
    m.onSfence();          // commits 0x0A, 0x0B stays pending
    m.onCrash();
    // Admissible: committed 0x0A or the in-flight 0x0B — but never
    // the initial zero, which the fence overwrote durably.
    load8(m, 0x40, 0x00);
    EXPECT_EQ(m.violationCount(), 1u);
}

TEST(GoldenModel, RepeatedCrashesKeepPriorAdmissibleValues)
{
    GoldenModel m;
    store8(m, 0x40, 0x01);
    m.onCrash(); // admissible {0x00-floor, 0x01}
    store8(m, 0x40, 0x02);
    m.onCrash(); // admissible {0x00, 0x01, 0x02}
    load8(m, 0x40, 0x01);
    EXPECT_TRUE(m.clean());
}

TEST(GoldenModel, StoreStraddlingTwoBlocksTracksBoth)
{
    GoldenModel m;
    const std::uint8_t v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    m.onStore(0x3C, v, sizeof(v)); // 0x3C..0x43: two blocks
    m.onClwb(0x00);                // only the lower block is flushed
    m.onSfence();
    const std::vector<Addr> blocks{0x00, 0x40};
    EXPECT_EQ(m.trackedBlocks(), blocks);
    m.onCrash();
    EXPECT_EQ(m.classify(0x3B), ByteClass::Untouched);
    EXPECT_EQ(m.classify(0x3C), ByteClass::Committed);
    EXPECT_EQ(m.classify(0x3F), ByteClass::Committed);
    EXPECT_EQ(m.classify(0x40), ByteClass::InFlight);
    EXPECT_EQ(m.classify(0x43), ByteClass::InFlight);
    EXPECT_EQ(m.classify(0x44), ByteClass::Untouched);

    // The upper half may have been lost (reads its zero floor), the
    // committed lower half may not.
    const std::uint8_t seen[8] = {1, 2, 3, 4, 0, 0, 7, 8};
    m.onLoad(0x3C, seen, sizeof(seen));
    EXPECT_TRUE(m.clean());
    EXPECT_EQ(m.checkedLoads(), 8u);
    const std::uint8_t lost[8] = {1, 2, 0, 4, 0, 0, 7, 8};
    m.onLoad(0x3C, lost, sizeof(lost));
    EXPECT_EQ(m.violationCount(), 1u);
    ASSERT_EQ(m.diagnostics().size(), 1u);
    EXPECT_EQ(m.diagnostics()[0],
              "addr 0x3e: observed 0x00, expected 0x03 (committed)");
}

TEST(GoldenModel, ClwbSnapshotCommitsOnlyTheEarlierOverlappingStore)
{
    GoldenModel m;
    const std::uint8_t a[4] = {0x11, 0x11, 0x11, 0x11};
    const std::uint8_t b[4] = {0x22, 0x22, 0x22, 0x22};
    m.onStore(0x80, a, sizeof(a)); // 0x80..0x83
    m.onClwb(0x80);
    m.onStore(0x82, b, sizeof(b)); // 0x82..0x85, after the snapshot
    m.onSfence();

    // Coherent view: the later store wins where they overlap, and a
    // stale read of an overlapped byte names it dirty.
    const std::uint8_t now[6] = {0x11, 0x11, 0x22, 0x22, 0x22, 0x22};
    m.onLoad(0x80, now, sizeof(now));
    EXPECT_TRUE(m.clean());
    load8(m, 0x82, 0x11);
    ASSERT_EQ(m.diagnostics().size(), 1u);
    EXPECT_EQ(m.diagnostics()[0],
              "addr 0x82: observed 0x11, expected 0x22 (dirty)");

    m.onCrash();
    EXPECT_EQ(m.classify(0x80), ByteClass::Committed);
    EXPECT_EQ(m.classify(0x81), ByteClass::Committed);
    EXPECT_EQ(m.classify(0x82), ByteClass::InFlight);
    EXPECT_EQ(m.classify(0x85), ByteClass::InFlight);
    // 0x82: the fence made 0x11 durable, so zero is gone for good.
    load8(m, 0x82, 0x00);
    ASSERT_EQ(m.diagnostics().size(), 2u);
    EXPECT_EQ(m.diagnostics()[1], "addr 0x82: observed 0x00, expected "
                                  "one of {0x11,0x22} (in-flight)");
    // 0x84 was never committed: its zero floor is still admissible.
    load8(m, 0x84, 0x00);
    load8(m, 0x83, 0x11);
    EXPECT_EQ(m.violationCount(), 2u);
}

TEST(GoldenModel, PostCrashStoreToInFlightByteKeepsTheOldSet)
{
    GoldenModel m;
    store8(m, 0x40, 0x01);
    m.onCrash(); // admissible {0x00, 0x01}
    store8(m, 0x40, 0x02);
    // A coherent load sees the new store, not the admissible set.
    EXPECT_EQ(m.classify(0x40), ByteClass::Committed);
    load8(m, 0x40, 0x02);
    EXPECT_TRUE(m.clean());
    m.onCrash(); // the old set is kept, the new value is added
    EXPECT_EQ(m.classify(0x40), ByteClass::InFlight);
    EXPECT_EQ(m.crashesSeen(), 2u);
    load8(m, 0x40, 0x03);
    ASSERT_EQ(m.diagnostics().size(), 1u);
    EXPECT_EQ(m.diagnostics()[0], "addr 0x40: observed 0x03, expected "
                                  "one of {0x00,0x01,0x02} (in-flight)");
    // A rejected value pins nothing; the oldest value still fits.
    load8(m, 0x40, 0x00);
    EXPECT_EQ(m.violationCount(), 1u);
    EXPECT_EQ(m.classify(0x40), ByteClass::Committed);
}

TEST(GoldenModel, InFlightDiagnosticListsTheSetInOrder)
{
    GoldenModel m;
    store8(m, 0xC0, 0x01);
    m.onClwb(0xC0);
    m.onSfence();
    store8(m, 0xC0, 0x02);
    store8(m, 0xC0, 0x01); // a repeat adds nothing to the set
    m.onCrash();
    load8(m, 0xC0, 0x03);
    load8(m, 0x1000, 0x7F);
    ASSERT_EQ(m.diagnostics().size(), 2u);
    EXPECT_EQ(m.diagnostics()[0], "addr 0xc0: observed 0x03, expected "
                                  "one of {0x01,0x02} (in-flight)");
    EXPECT_EQ(m.diagnostics()[1],
              "addr 0x1000: observed 0x7f, expected 0x00 (untouched)");
}

TEST(GoldenModel, LostBlockStartsAfreshOnTheNextStore)
{
    GoldenModel m;
    store8(m, 0x100, 0x11);
    store8(m, 0x140, 0x33);
    m.onClwb(0x100);
    m.onSfence();
    m.onBlockLost(0x100);
    EXPECT_EQ(m.classify(0x100), ByteClass::Untouched);
    EXPECT_EQ(m.trackedBlocks(), std::vector<Addr>{0x140});
    load8(m, 0x100, 0x00); // the loss reads as zero
    EXPECT_TRUE(m.clean());

    store8(m, 0x101, 0x22);
    EXPECT_EQ(m.trackedBlocks(), (std::vector<Addr>{0x100, 0x140}));
    EXPECT_EQ(m.classify(0x100), ByteClass::Untouched);
    EXPECT_EQ(m.classify(0x101), ByteClass::Committed);
    m.onCrash();
    EXPECT_EQ(m.classify(0x101), ByteClass::InFlight);
    load8(m, 0x101, 0x11); // the lost floor is not admissible
    ASSERT_EQ(m.diagnostics().size(), 1u);
    EXPECT_EQ(m.diagnostics()[0], "addr 0x101: observed 0x11, expected "
                                  "one of {0x00,0x22} (in-flight)");
    load8(m, 0x100, 0x11);
    EXPECT_EQ(m.violationCount(), 2u);
}

TEST(GoldenModel, DiagnosticsAreCappedAtSixteen)
{
    GoldenModel m;
    std::uint8_t junk[20];
    for (unsigned i = 0; i < sizeof(junk); ++i)
        junk[i] = std::uint8_t(i + 1);
    m.onLoad(0x3F0, junk, sizeof(junk)); // untouched, crosses a block
    EXPECT_EQ(m.violationCount(), 20u);
    EXPECT_EQ(m.checkedLoads(), 20u);
    ASSERT_EQ(m.diagnostics().size(), 16u);
    EXPECT_EQ(m.diagnostics().front(),
              "addr 0x3f0: observed 0x01, expected 0x00 (untouched)");
    EXPECT_EQ(m.diagnostics().back(),
              "addr 0x3ff: observed 0x10, expected 0x00 (untouched)");
}

TEST(GoldenModelSystem, CleanRunThroughRealMachineStaysClean)
{
    System sys(dolos::test::cfgFor(SecurityMode::DolosPartialWpq));
    GoldenModel golden;
    sys.core().setObserver(&golden);

    for (Addr a = 0; a < 32 * blockSize; a += 8) {
        const std::uint64_t v = a * 0x9E3779B97F4A7C15ULL + 1;
        sys.core().store(a, &v, sizeof(v));
    }
    for (Addr a = 0; a < 32 * blockSize; a += blockSize)
        sys.core().clwb(a);
    sys.core().sfence();
    sys.crash();
    sys.recover();

    const auto report = checkAgainstGolden(sys, golden);
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_EQ(report.blocksScanned, 32u);
    EXPECT_EQ(report.committedBytes, 32u * blockSize);
    EXPECT_EQ(report.inFlightBytes, 0u);
    sys.core().setObserver(nullptr);
}

TEST(GoldenModelSystem, DroppedClwbIsCaughtByTheOracle)
{
    // A platform that silently loses a CLWB violates the committed
    // prefix; the differential oracle must see it even though no
    // integrity check can (nothing was tampered with).
    System sys(dolos::test::cfgFor(SecurityMode::DolosPartialWpq));
    GoldenModel golden;
    sys.core().setObserver(&golden);
    FaultInjector inj(sys, 7);

    const std::uint64_t v = 0xD0105D0105D0105ULL;
    sys.core().store(0x1000, &v, sizeof(v));
    const auto rec = inj.armDroppedClwb(0);
    EXPECT_TRUE(rec.injected);
    sys.core().clwb(0x1000); // dropped: never reaches the WPQ
    sys.core().sfence();     // nothing outstanding: returns at once
    sys.crash();
    sys.recover();

    const auto report = checkAgainstGolden(sys, golden);
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(sys.attackDetected()); // a bug, not an attack
    ASSERT_FALSE(report.diagnostics.empty());
    sys.core().setObserver(nullptr);
}

TEST(GoldenModelSystem, HonoredClwbKeepsTheSameSequenceClean)
{
    // Control for the dropped-CLWB test: identical sequence, flush
    // honored, oracle clean.
    System sys(dolos::test::cfgFor(SecurityMode::DolosPartialWpq));
    GoldenModel golden;
    sys.core().setObserver(&golden);

    const std::uint64_t v = 0xD0105D0105D0105ULL;
    sys.core().store(0x1000, &v, sizeof(v));
    sys.core().clwb(0x1000);
    sys.core().sfence();
    sys.crash();
    sys.recover();

    const auto report = checkAgainstGolden(sys, golden);
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_FALSE(sys.attackDetected());
    sys.core().setObserver(nullptr);
}

TEST(GoldenModelSystem, StaleDirtyEvictionImageIsAdmissible)
{
    // The hierarchy's stale-dirty eviction on a real machine: L2 and
    // the LLC hold a dirty copy of X older than L1's when they evict
    // it, and memory receives L1's newer, never-flushed value. The
    // crash image holds that value, which the golden model admits as
    // in flight.
    auto cfg = dolos::test::cfgFor(SecurityMode::DolosPartialWpq);
    cfg.hierarchy.l1 = {"l1", 512, 2, 2};
    cfg.hierarchy.l2 = {"l2", 2048, 4, 20};
    cfg.hierarchy.llc = {"llc", 8192, 8, 32};
    System sys(cfg);
    GoldenModel golden;
    auto &core = sys.core();
    core.setObserver(&golden);

    const Addr x = 0x10000; // set 0 at every level
    const std::uint64_t v1 = 0x1111, v2 = 0x2222;
    std::uint64_t out = 0;
    core.store(x, &v1, sizeof(v1));
    core.load(x + 0x400, &out, sizeof(out)); // L1 writes X back to L2
    core.load(x + 0x800, &out, sizeof(out));
    core.store(x, &v2, sizeof(v2)); // L2's dirty copy is now stale
    auto &h = sys.hierarchy();
    for (Addr a = x + 0xC00; h.llc().find(x) && a < x + 0x10000;
         a += 0x400) {
        core.load(a, &out, sizeof(out));
        core.load(x, &out, sizeof(out)); // keep X in L1
    }
    ASSERT_EQ(h.llc().find(x), nullptr);
    ASSERT_NE(h.l1().find(x), nullptr);

    sys.crash();
    sys.recover();
    EXPECT_EQ(golden.classify(x), ByteClass::InFlight);
    const auto report = checkAgainstGolden(sys, golden);
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_FALSE(sys.attackDetected());
    core.load(x, &out, sizeof(out));
    EXPECT_EQ(out, v2); // the newest value reached NVM
    EXPECT_TRUE(golden.clean());
    core.setObserver(nullptr);
}

} // namespace
