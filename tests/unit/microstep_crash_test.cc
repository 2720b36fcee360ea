/**
 * @file
 * Microstep crash-point tests: power failures *inside* the optimized
 * persist path. The registry's probe/arm contract, committed-prefix
 * recovery from mid-climb BMT pipeline crashes, the root-commit
 * window under both crash schemes, and the compound
 * crash-during-recovery case.
 *
 * Every armed run replays a machine a probe run enumerated, so a
 * silent non-firing is itself a failure (CrashPointResult.crashFired).
 */

#include <gtest/gtest.h>

#include <vector>

#include "dolos/controller.hh"
#include "sim/crash_points.hh"
#include "verify/sweep_driver.hh"
#include "workloads/pmem.hh"

namespace
{

using namespace dolos;
using namespace dolos::verify;
namespace cp = dolos::crashpoint;

/** Small machine, lever at its (default-on) setting. */
SystemConfig
smallBase()
{
    auto cfg = SystemConfig::paperDefault();
    cfg.secure.functionalLeaves = 2048;
    cfg.secure.map.protectedBytes = Addr(2048) * pageBytes;
    // A tiny counter cache forces real misses, and dirty counter
    // blocks get evicted.
    cfg.secure.counterCache = {"counterCache", 512, 2};
    cfg.secure.mtCache = {"mtCache", 16 * 1024, 8};
    cfg.hierarchy.l1 = {"l1", 1024, 2, 2};
    cfg.hierarchy.l2 = {"l2", 4096, 4, 20};
    cfg.hierarchy.llc = {"llc", 16384, 8, 32};
    return cfg;
}

SweepOptions
sweepFor(SecurityMode mode)
{
    SweepOptions opt;
    opt.mode = mode;
    opt.workload = "hashmap";
    opt.numTx = 3;
    // Page-spanning transactions so counter-block misses (and with
    // them counter evictions) occur during the measured run.
    opt.params.txSize = 6144;
    opt.params.numKeys = 1024;
    opt.params.thinkTime = 400;
    opt.params.readsPerTx = 1;
    opt.params.seed = 7;
    opt.base = smallBase();
    opt.pointSet = CrashPoints::Microstep;
    return opt;
}

/** Probe run: the full firing sequence of the measured run. */
std::vector<cp::Step>
probeSequence(const SweepOptions &opt)
{
    auto &reg = cp::Registry::instance();
    SystemConfig cfg = opt.base;
    cfg.mode = opt.mode;
    System sys(cfg);
    const auto wl = workloads::makeWorkload(opt.workload, opt.params);
    workloads::PmemEnv env(sys);
    wl->setup(env);
    reg.reset();
    reg.enableCounting();
    for (std::uint64_t i = 0; i < opt.numTx; ++i)
        wl->transaction(env, i);
    const std::vector<cp::Step> seq = reg.sequence();
    reg.reset();
    return seq;
}

/** Firing indices of one step within a probe sequence. */
std::vector<std::uint64_t>
indicesOf(const std::vector<cp::Step> &seq, cp::Step step)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < seq.size(); ++i)
        if (seq[i] == step)
            out.push_back(i);
    return out;
}

void
expectPointPasses(const SweepOptions &opt, std::uint64_t idx)
{
    const auto res = runCrashPoint(opt, idx);
    EXPECT_TRUE(res.passed())
        << "crash index " << idx << " step=" << res.microstep
        << " structure=" << res.structureVerified
        << " attack=" << res.attackDetected
        << " fired=" << res.crashFired << " "
        << res.oracle.summary();
}

TEST(CrashPointRegistry, CountsRecordsArmsAndAutoDisarms)
{
    auto &reg = cp::Registry::instance();
    reg.reset();
    EXPECT_FALSE(reg.active());

    reg.enableCounting();
    reg.fire(cp::Step::MasuCtrFetch);
    reg.fire(cp::Step::MasuBmtLevel);
    reg.fire(cp::Step::MasuBmtLevel);
    EXPECT_EQ(reg.firings(), 3u);
    EXPECT_EQ(reg.firingsOf(cp::Step::MasuBmtLevel), 2u);
    EXPECT_EQ(reg.firingsOf(cp::Step::WpqRedoClear), 0u);
    ASSERT_EQ(reg.sequence().size(), 3u);
    EXPECT_EQ(reg.sequence()[0], cp::Step::MasuCtrFetch);
    EXPECT_EQ(reg.sequence()[2], cp::Step::MasuBmtLevel);

    reg.reset();
    EXPECT_EQ(reg.firings(), 0u);
    EXPECT_TRUE(reg.sequence().empty());

    reg.arm(1);
    EXPECT_TRUE(reg.active());
    EXPECT_NO_THROW(reg.fire(cp::Step::WpqDrainIssue)); // index 0
    EXPECT_FALSE(reg.crashFired());
    try {
        reg.fire(cp::Step::WpqRedoClear); // index 1: the armed one
        FAIL() << "expected MicrostepCrash";
    } catch (const cp::MicrostepCrash &c) {
        EXPECT_EQ(c.step, cp::Step::WpqRedoClear);
        EXPECT_EQ(c.index, 1u);
    }
    EXPECT_TRUE(reg.crashFired());
    EXPECT_EQ(reg.firedStep(), cp::Step::WpqRedoClear);
    // Auto-disarmed: recovery's own persist traffic cannot re-trip.
    EXPECT_NO_THROW(reg.fire(cp::Step::WpqCtWrite));
    EXPECT_EQ(reg.firings(), 3u);
    reg.reset();
}

TEST(MicrostepProbe, EveryLeverFamilyFiresUnderDefaults)
{
    const auto opt = sweepFor(SecurityMode::DolosPartialWpq);
    const auto seq = probeSequence(opt);
    ASSERT_FALSE(seq.empty());

    // Every step fires under the default machine.
    const cp::Step expected[] = {
        cp::Step::MasuCtrFetch,        cp::Step::MasuCtrBumped,
        cp::Step::MasuAesPad,          cp::Step::MasuMacStored,
        cp::Step::MasuBmtLevel,        cp::Step::MasuBmtCoalesce,
        cp::Step::MasuRootCommit,      cp::Step::MasuCtrEvict,
        cp::Step::WpqDrainIssue,       cp::Step::WpqCtWrite,
        cp::Step::WpqRedoClear,
    };
    for (const auto step : expected)
        EXPECT_FALSE(indicesOf(seq, step).empty())
            << "no firing of " << cp::stepName(step);

    // The sweep driver's enumeration is the same count.
    const auto points = enumerateCrashPoints(opt);
    EXPECT_EQ(points.size(), seq.size());
}

TEST(MicrostepCrash, MidClimbBmtPipelineCrashesRecover)
{
    const auto opt = sweepFor(SecurityMode::DolosPartialWpq);
    const auto seq = probeSequence(opt);
    const auto climbs = indicesOf(seq, cp::Step::MasuBmtLevel);
    ASSERT_GT(climbs.size(), 2u);
    // First, a middle, and the last charged level of a pipelined
    // climb window — recovery must land the committed prefix.
    expectPointPasses(opt, climbs.front());
    expectPointPasses(opt, climbs[climbs.size() / 2]);
    expectPointPasses(opt, climbs.back());
}

TEST(MicrostepCrash, RootCommitWindowRecoversUnderBothSchemes)
{
    for (const auto scheme :
         {CrashScheme::Anubis, CrashScheme::Osiris}) {
        auto opt = sweepFor(SecurityMode::DolosFullWpq);
        opt.base.secure.crashScheme = scheme;
        const auto seq = probeSequence(opt);
        const auto commits = indicesOf(seq, cp::Step::MasuRootCommit);
        ASSERT_FALSE(commits.empty()) << int(scheme);
        // The window between the engine's atomic commit group and the
        // controller's redo-ready hook: crash right at the commit
        // hook and right before it (the previous firing).
        expectPointPasses(opt, commits.front());
        if (commits.front() > 0)
            expectPointPasses(opt, commits.front() - 1);
        expectPointPasses(opt, commits.back());
    }
}

TEST(MicrostepCrash, CrashDuringRecoveryAtMicrostepPoint)
{
    // Compound failure: power dies inside a drain, then dies again at
    // recovery checkpoint 2 — the restartable recovery must converge.
    auto opt = sweepFor(SecurityMode::DolosPartialWpq);
    opt.recoveryCrashStep = 2;
    const auto seq = probeSequence(opt);
    const auto commits = indicesOf(seq, cp::Step::MasuRootCommit);
    ASSERT_FALSE(commits.empty());
    const auto res = runCrashPoint(opt, commits.front());
    EXPECT_TRUE(res.passed())
        << res.microstep << " " << res.oracle.summary();
    EXPECT_GE(res.recoveryAttempts, 2u);
}

} // namespace
