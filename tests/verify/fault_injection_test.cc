/**
 * @file
 * Attack-detection tests: for every fault class the injector can
 * produce, every secure controller organization must raise the
 * attack-detected flag — and the non-secure ideal must corrupt
 * silently (the negative control that proves the tests detect the
 * detection, not some side effect).
 *
 * The deterministic protocol: populate a few blocks with flushed,
 * fenced writes; power-cycle once so the ADR dump is drained, the
 * metadata caches are cold and all counter state is persisted; then
 * inject and provoke the check (a read of the victim, or a second
 * recovery for rollback attacks, whose detection point is boot).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "secure/address_map.hh"
#include "tests/integration/integration_common.hh"
#include "verify/fault_injector.hh"

namespace
{

using namespace dolos;
using namespace dolos::verify;

constexpr unsigned numBlocks = 24;

std::uint64_t
patternFor(Addr addr)
{
    return addr * 0xC2B2AE3D27D4EB4FULL + 0x1234;
}

/** Flushed+fenced writes, then one power cycle to quiesce. */
void
populateAndCycle(System &sys)
{
    for (Addr a = 0; a < numBlocks * blockSize; a += 8) {
        const std::uint64_t v = patternFor(a);
        sys.core().store(a, &v, sizeof(v));
    }
    for (Addr a = 0; a < numBlocks * blockSize; a += blockSize)
        sys.core().clwb(a);
    sys.core().sfence();
    // Let the WPQ drain fully before the power cycle: an empty ADR
    // dump means recovery replays nothing, so the engine's counter
    // and tree caches stay cold — the victim read after injection
    // must then walk (and authenticate) the full tree path.
    sys.controller().drainTo(sys.core().now() + 1'000'000);
    sys.core().compute(1'000'000);
    sys.crash();
    sys.recover();
    ASSERT_FALSE(sys.attackDetected());
}

struct FaultCase
{
    SecurityMode mode;
    FaultKind kind;
};

class AttackDetection : public ::testing::TestWithParam<FaultCase>
{
};

TEST_P(AttackDetection, SecureModesRaiseTheAlarm)
{
    const auto &[mode, kind] = GetParam();
    System sys(dolos::test::cfgFor(mode));
    FaultInjector inj(sys, 1000 + unsigned(kind));
    populateAndCycle(sys);

    InjectionRecord rec;
    if (kind == FaultKind::CounterRollback) {
        // Rollback is a boot-time attack: tamper with the powered-off
        // image, detection happens when recovery rebuilds the tree
        // and compares against the on-chip root.
        sys.crash();
        rec = inj.injectCounterRollback();
        ASSERT_TRUE(rec.injected) << rec.detail;
        sys.recover();
    } else {
        // Flips are bus/NVM attacks: detection happens on the next
        // read that authenticates the victim.
        rec = inj.inject(kind);
        ASSERT_TRUE(rec.injected) << rec.detail;
        Block buf;
        sys.core().load(rec.victim, buf.data(), blockSize);
    }
    EXPECT_TRUE(sys.attackDetected())
        << securityModeName(mode) << " missed " << faultKindName(kind)
        << ": " << rec.detail;
}

std::vector<FaultCase>
faultCases()
{
    std::vector<FaultCase> cases;
    for (const auto mode : dolos::test::secureModes())
        for (const auto kind :
             {FaultKind::DataFlip, FaultKind::MacFlip,
              FaultKind::CounterRollback, FaultKind::BmtFlip})
            cases.push_back({mode, kind});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ModesXFaults, AttackDetection, ::testing::ValuesIn(faultCases()),
    [](const auto &info) {
        std::string n = dolos::test::modeLabel(info.param.mode);
        n += "_";
        for (const char c : std::string(faultKindName(info.param.kind)))
            if (c != '-')
                n.push_back(c);
        return n;
    });

TEST(AttackDetectionControl, NonSecureIdealCorruptsSilently)
{
    // Negative control: without a security engine in the path, a
    // flipped NVM bit reads back wrong and nothing notices.
    System sys(dolos::test::cfgFor(SecurityMode::NonSecureIdeal));
    FaultInjector inj(sys, 77);
    populateAndCycle(sys);

    const auto rec = inj.injectDataFlip();
    ASSERT_TRUE(rec.injected) << rec.detail;
    Block buf;
    sys.core().load(rec.victim, buf.data(), blockSize);

    Block expect;
    for (unsigned off = 0; off < blockSize; off += 8) {
        const std::uint64_t v = patternFor(rec.victim + off);
        std::memcpy(expect.data() + off, &v, sizeof(v));
    }
    EXPECT_NE(0, std::memcmp(buf.data(), expect.data(), blockSize));
    EXPECT_FALSE(sys.attackDetected());
}

class TornDump : public ::testing::TestWithParam<SecurityMode>
{
};

TEST_P(TornDump, DolosModesAuthenticateTheAdrDump)
{
    // Fill the WPQ right before the crash so the dump is non-trivial,
    // then tear the ADR flush after two entries. The Mi-SU dump
    // authentication must refuse the truncated dump at recovery.
    // The serial (paper) persist path keeps enough entries queued at
    // the crash — the default-on pipeline drains too fast for the
    // tear to have three entries to truncate.
    auto cfg = dolos::test::cfgFor(GetParam());
    cfg.secure.bmtPipeline = false;
    System sys(cfg);
    FaultInjector inj(sys, 5);

    for (Addr a = 0; a < numBlocks * blockSize; a += 8) {
        const std::uint64_t v = patternFor(a);
        sys.core().store(a, &v, sizeof(v));
    }
    for (Addr a = 0; a < numBlocks * blockSize; a += blockSize)
        sys.core().clwb(a);
    sys.core().sfence(); // Dolos: persisted at WPQ *insertion*

    const auto rec = inj.armTornAdrDump(2);
    ASSERT_TRUE(rec.injected);
    const auto dump = sys.crash();
    ASSERT_GT(dump.entriesDumped, 2u)
        << "WPQ drained before the crash; tear had nothing to tear";
    const auto boot = sys.recover();
    EXPECT_FALSE(boot.misuVerified);
    EXPECT_TRUE(sys.attackDetected());
}

INSTANTIATE_TEST_SUITE_P(DolosModes, TornDump,
                         ::testing::Values(SecurityMode::DolosFullWpq,
                                           SecurityMode::DolosPartialWpq,
                                           SecurityMode::DolosPostWpq),
                         [](const auto &info) {
                             return dolos::test::modeLabel(info.param);
                         });

/**
 * Rewrite @p victim and let the WPQ drain it: with an injected write
 * failure every program pulse fails, the controller retries, gives
 * up and quarantines.
 */
void
rewriteAndDrain(System &sys, Addr victim)
{
    const std::uint64_t v = ~patternFor(victim);
    sys.core().store(victim, &v, sizeof(v));
    sys.core().clwb(victim);
    sys.core().sfence();
    sys.controller().drainTo(sys.core().now() + 1'000'000);
    sys.core().compute(1'000'000);
}

class MediaFaults : public ::testing::TestWithParam<SecurityMode>
{
};

TEST_P(MediaFaults, TransientFlipHealsSilently)
{
    System sys(dolos::test::cfgFor(GetParam()));
    FaultInjector inj(sys, 301);
    populateAndCycle(sys);

    const auto rec = inj.injectMediaTransient();
    ASSERT_TRUE(rec.injected) << rec.detail;
    Block buf;
    sys.core().load(rec.victim, buf.data(), blockSize);

    // The device flagged the corruption, so the engine retried
    // instead of alarming — and the data came back intact.
    Block expect;
    for (unsigned off = 0; off < blockSize; off += 8) {
        const std::uint64_t v = patternFor(rec.victim + off);
        std::memcpy(expect.data() + off, &v, sizeof(v));
    }
    EXPECT_EQ(0, std::memcmp(buf.data(), expect.data(), blockSize))
        << rec.detail;
    EXPECT_FALSE(sys.attackDetected()) << rec.detail;
    EXPECT_FALSE(sys.unrecoverableMedia());
    EXPECT_GE(sys.nvmDevice().mediaHealed(), 1u);
}

TEST_P(MediaFaults, StuckCellQuarantinesNotAlarms)
{
    System sys(dolos::test::cfgFor(GetParam()));
    FaultInjector inj(sys, 302);
    populateAndCycle(sys);

    const auto rec = inj.injectMediaStuck();
    ASSERT_TRUE(rec.injected) << rec.detail;
    Block buf;
    sys.core().load(rec.victim, buf.data(), blockSize);

    // Unhealable wear is graceful degradation, never tamper.
    EXPECT_FALSE(sys.attackDetected()) << rec.detail;
    EXPECT_TRUE(sys.unrecoverableMedia()) << rec.detail;
    EXPECT_TRUE(sys.nvmDevice().isQuarantined(rec.victim));
    EXPECT_EQ(buf, zeroBlock());
}

TEST_P(MediaFaults, WriteFailureQuarantinesNotAlarms)
{
    System sys(dolos::test::cfgFor(GetParam()));
    FaultInjector inj(sys, 303);
    populateAndCycle(sys);

    const auto rec = inj.inject(FaultKind::MediaWriteFail);
    ASSERT_TRUE(rec.injected) << rec.detail;
    rewriteAndDrain(sys, rec.victim);

    EXPECT_FALSE(sys.attackDetected()) << rec.detail;
    EXPECT_TRUE(sys.unrecoverableMedia()) << rec.detail;
    EXPECT_TRUE(sys.nvmDevice().isQuarantined(rec.victim));
}

INSTANTIATE_TEST_SUITE_P(
    SecureModes, MediaFaults,
    ::testing::ValuesIn(dolos::test::secureModes()),
    [](const auto &info) {
        return dolos::test::modeLabel(info.param);
    });

/**
 * Ideal and Pre-WPQ write raw NVM on the drain: the device's retry
 * policy still counts every retry it makes there.
 */
class RawMediaFaults : public ::testing::TestWithParam<SecurityMode>
{
};

TEST_P(RawMediaFaults, WriteFailureRetriesAreCounted)
{
    System sys(dolos::test::cfgFor(GetParam()));
    FaultInjector inj(sys, 303);
    populateAndCycle(sys);

    const auto rec = inj.inject(FaultKind::MediaWriteFail);
    ASSERT_TRUE(rec.injected) << rec.detail;
    rewriteAndDrain(sys, rec.victim);

    const NvmDevice &nvm = sys.nvmDevice();
    const auto q = nvm.quarantineLog().find(blockAlign(rec.victim));
    ASSERT_NE(q, nvm.quarantineLog().end()) << rec.detail;
    EXPECT_EQ(q->second.retries, 3u);
    EXPECT_EQ(nvm.mediaRetries(), q->second.retries);
    EXPECT_EQ(nvm.mediaHealed(), 0u);

    std::ostringstream os;
    sys.dumpDamageJson(os);
    EXPECT_NE(os.str().find("\"retries\":3,\"healed\":0"),
              std::string::npos)
        << os.str();
}

INSTANTIATE_TEST_SUITE_P(
    RawModes, RawMediaFaults,
    ::testing::Values(SecurityMode::NonSecureIdeal,
                      SecurityMode::PreWpqSecure),
    [](const auto &info) {
        return dolos::test::modeLabel(info.param);
    });

TEST(RawMediaFaultsControl, IdealTransientIsRetriedAndHealed)
{
    System sys(dolos::test::cfgFor(SecurityMode::NonSecureIdeal));
    FaultInjector inj(sys, 301);
    populateAndCycle(sys);

    const auto rec = inj.injectMediaTransient();
    ASSERT_TRUE(rec.injected) << rec.detail;
    std::uint64_t v = 0;
    sys.core().load(rec.victim, &v, sizeof(v));

    EXPECT_EQ(v, patternFor(rec.victim)) << rec.detail;
    EXPECT_EQ(sys.nvmDevice().mediaRetries(), 1u);
    EXPECT_EQ(sys.nvmDevice().mediaHealed(), 1u);
    EXPECT_FALSE(sys.unrecoverableMedia());
}

TEST(MediaFaultsControl, DamageReportListsQuarantinedBlocks)
{
    System sys(dolos::test::cfgFor(SecurityMode::DolosPartialWpq));
    FaultInjector inj(sys, 304);
    populateAndCycle(sys);

    const auto rec = inj.injectMediaStuck();
    ASSERT_TRUE(rec.injected);
    Block buf;
    sys.core().load(rec.victim, buf.data(), blockSize);
    ASSERT_TRUE(sys.unrecoverableMedia());

    std::ostringstream os;
    sys.dumpDamageJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"unrecoverableMedia\":true"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"quarantined\":[{"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"attackDetected\":false"), std::string::npos)
        << json;
}

TEST(TornDumpControl, UntornDumpRecoversCleanly)
{
    // Same burst, no tear: the dump must authenticate and the data
    // must be intact after recovery.
    System sys(dolos::test::cfgFor(SecurityMode::DolosPartialWpq));
    for (Addr a = 0; a < numBlocks * blockSize; a += 8) {
        const std::uint64_t v = patternFor(a);
        sys.core().store(a, &v, sizeof(v));
    }
    for (Addr a = 0; a < numBlocks * blockSize; a += blockSize)
        sys.core().clwb(a);
    sys.core().sfence();
    sys.crash();
    const auto boot = sys.recover();
    EXPECT_TRUE(boot.misuVerified);
    EXPECT_FALSE(sys.attackDetected());
    for (Addr a = 0; a < numBlocks * blockSize; a += 8) {
        std::uint64_t out = 0;
        sys.core().load(a, &out, sizeof(out));
        ASSERT_EQ(out, patternFor(a)) << "addr 0x" << std::hex << a;
    }
}

} // namespace
