/**
 * @file
 * Crash-consistency property sweeps, driven by the verification
 * subsystem: crash points are enumerated at WPQ-insertion boundaries
 * (SweepDriver) instead of a hard-coded operation list, and every
 * recovery is checked both by the workload's structural verifier and
 * by the golden model's committed-prefix oracle; plus repeated
 * crash/recovery epochs on one machine, and both states of the
 * timing-only persist-path lever (bmtPipeline) swept side by side.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "tests/integration/integration_common.hh"
#include "verify/diff_oracle.hh"
#include "verify/sweep_driver.hh"
#include "workloads/runner.hh"

namespace
{

using namespace dolos;
using namespace dolos::workloads;
using dolos::test::cfgFor;
using dolos::test::smallParams;

verify::SweepOptions
sweepFor(SecurityMode mode, const std::string &workload,
         std::uint64_t seed)
{
    verify::SweepOptions opt;
    opt.mode = mode;
    opt.workload = workload;
    opt.numTx = 6;
    opt.params = smallParams(seed);
    opt.base = cfgFor(mode);
    opt.budget = 3;
    opt.sampleSeed = seed;
    return opt;
}

TEST(CrashSweep, BoundariesAreNonEmptyAndIncreasing)
{
    const auto opt =
        sweepFor(SecurityMode::DolosPartialWpq, "hashmap", 11);
    const auto boundaries = verify::enumerateWpqBoundaries(opt);
    ASSERT_FALSE(boundaries.empty());
    for (std::size_t i = 1; i < boundaries.size(); ++i)
        EXPECT_LT(boundaries[i - 1], boundaries[i]) << "index " << i;
}

class CrashSweepWorkloads
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CrashSweepWorkloads, EveryBoundarySampleRecoversConsistently)
{
    const auto result = verify::sweepCrashPoints(
        sweepFor(SecurityMode::DolosPartialWpq, GetParam(), 23));
    ASSERT_FALSE(result.boundaries.empty());
    ASSERT_FALSE(result.points.empty());
    EXPECT_TRUE(result.allPassed()) << result.firstFailure();
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrashSweepWorkloads,
    ::testing::ValuesIn(workloadNames()), [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

class CrashSweepModes
    : public ::testing::TestWithParam<SecurityMode>
{
};

TEST_P(CrashSweepModes, HashmapSurvivesBoundaryCrashes)
{
    if (GetParam() == SecurityMode::PostWpqUnprotected)
        GTEST_SKIP() << "infeasible design: no honest crash story";
    const auto result = verify::sweepCrashPoints(
        sweepFor(GetParam(), "hashmap", 31));
    ASSERT_FALSE(result.points.empty());
    EXPECT_TRUE(result.allPassed()) << result.firstFailure();
}

INSTANTIATE_TEST_SUITE_P(Modes, CrashSweepModes,
                         ::testing::ValuesIn(dolos::test::allModes()),
                         [](const auto &info) {
                             return dolos::test::modeLabel(info.param);
                         });

/**
 * The lever sweep's machine: the crash-test machine with tiny
 * metadata caches, so climbs overlap, dirty metadata is evicted and
 * same-line writes recur — real pressure on the lever.
 */
verify::SweepOptions
leverSweep(SecurityMode mode, const std::string &workload,
           bool pipeline)
{
    auto opt = sweepFor(mode, workload, 7);
    opt.numTx = 4;
    opt.base = dolos::test::smallCacheCfgFor(mode);
    opt.base.secure.counterCache = {"counterCache", 8 * 1024, 4};
    opt.base.secure.mtCache = {"mtCache", 16 * 1024, 8};
    opt.base.secure.bmtPipeline = pipeline;
    return opt;
}

const SecurityMode dolosModes[] = {SecurityMode::DolosFullWpq,
                                   SecurityMode::DolosPartialWpq,
                                   SecurityMode::DolosPostWpq};
const char *const leverWorkloads[] = {"hashmap", "btree", "ctree",
                                      "rbtree"};

/**
 * The lever is timing-only: both states run the same program, so the
 * serial Ma-SU (off) and the pipelined one (on) must each recover
 * every sampled WPQ-boundary crash to the committed prefix, with the
 * oracle clean and no alarm. That implies what an off-vs-on diff
 * would check: identical plaintext, byte classes and committed bytes.
 */
class LeverCrashSweep
    : public ::testing::TestWithParam<
          std::tuple<SecurityMode, const char *, bool>>
{
};

TEST_P(LeverCrashSweep, EveryBoundarySampleRecoversConsistently)
{
    const auto &[mode, workload, pipeline] = GetParam();
    const auto opt = leverSweep(mode, workload, pipeline);
    const auto result = verify::sweepCrashPoints(opt);
    ASSERT_FALSE(result.points.empty());
    EXPECT_TRUE(result.allPassed())
        << result.firstFailure() << "\n  repro: "
        << verify::describeSweep(opt) << " opt-knobs="
        << pipelineSpecName(pipeline);
}

INSTANTIATE_TEST_SUITE_P(
    DolosModes, LeverCrashSweep,
    ::testing::Combine(::testing::ValuesIn(dolosModes),
                       ::testing::ValuesIn(leverWorkloads),
                       ::testing::Bool()),
    [](const auto &info) {
        return dolos::test::modeLabel(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param) + "_" +
               pipelineSpecName(std::get<2>(info.param));
    });

/**
 * One crash-free run of the lever sweep's machine, held to the same
 * contract (structure verified, oracle clean, no alarm). Returns its
 * wpqStallCycles + bmtCycles.
 */
std::uint64_t
crashFreeStallPlusBmt(SecurityMode mode, const std::string &workload,
                      bool pipeline)
{
    const auto opt = leverSweep(mode, workload, pipeline);
    System sys(opt.base);
    verify::GoldenModel golden;
    sys.core().setObserver(&golden);
    auto wl = makeWorkload(workload, opt.params);
    const auto res = runWorkload(sys, *wl, opt.numTx);
    const std::uint64_t stall_plus_bmt =
        sys.controller().wpqStallCycles() + sys.engine().bmtCycles();
    EXPECT_TRUE(res.verified) << res.verifyDiagnostic;
    EXPECT_TRUE(verify::checkAgainstGolden(sys, golden).clean());
    EXPECT_FALSE(sys.attackDetected());
    sys.core().setObserver(nullptr);
    return stall_plus_bmt;
}

TEST(LeverCrashFree, BothStatesCleanAndPipelineNeverAddsStallCycles)
{
    for (const SecurityMode mode : dolosModes)
        for (const char *workload : leverWorkloads) {
            SCOPED_TRACE(std::string(securityModeName(mode)) + " " +
                         workload);
            EXPECT_LE(crashFreeStallPlusBmt(mode, workload, true),
                      crashFreeStallPlusBmt(mode, workload, false));
        }
}

TEST(CrashEpochs, RepeatedCrashesOnOneMachine)
{
    // Five epochs of run-crash-recover on the same machine; data
    // committed in every epoch must remain intact at the end.
    System sys(cfgFor(SecurityMode::DolosPostWpq));
    auto wl = makeWorkload("hashmap", smallParams(99));
    bool first = true;
    for (int epoch = 0; epoch < 5; ++epoch) {
        const auto res = runWorkload(
            sys, *wl, 20, CrashPlan{500 + std::uint64_t(epoch) * 137},
            first);
        first = false;
        ASSERT_TRUE(res.verified)
            << "epoch " << epoch << ": " << res.verifyDiagnostic;
    }
    EXPECT_FALSE(sys.attackDetected());
}

TEST(CrashEpochs, CleanRunThenCrashThenContinue)
{
    System sys(cfgFor(SecurityMode::DolosFullWpq));
    auto wl = makeWorkload("redis", smallParams(5));
    const auto r1 = runWorkload(sys, *wl, 30);
    ASSERT_TRUE(r1.verified) << r1.verifyDiagnostic;

    const auto r2 =
        runWorkload(sys, *wl, 30, CrashPlan{700}, false);
    ASSERT_TRUE(r2.verified) << r2.verifyDiagnostic;

    const auto r3 = runWorkload(sys, *wl, 30, std::nullopt, false);
    EXPECT_TRUE(r3.verified) << r3.verifyDiagnostic;
    EXPECT_EQ(r3.transactions, 30u);
}

TEST(CrashEpochs, CrashDuringSetupTimeWindowIsSafe)
{
    // Crash very early (still inside the first transactions);
    // recovery must still verify. runCrashPoint also attaches the
    // committed-prefix oracle.
    const auto point = verify::runCrashPoint(
        sweepFor(SecurityMode::DolosPartialWpq, "btree", 7), 1);
    EXPECT_TRUE(point.passed()) << point.oracle.summary();
}

TEST(CrashSweep, EveryOpEnumeratesMorePointsThanWpqBoundaries)
{
    auto opt = sweepFor(SecurityMode::DolosPartialWpq, "hashmap", 13);
    const auto wpq = verify::enumerateCrashPoints(opt).size();
    opt.pointSet = verify::CrashPoints::EveryOp;
    const auto every = verify::enumerateCrashPoints(opt).size();
    EXPECT_GT(every, wpq);
    EXPECT_GT(every, 0u);
}

class ArbitraryCycleCrashSweep
    : public ::testing::TestWithParam<SecurityMode>
{
};

TEST_P(ArbitraryCycleCrashSweep, EveryOpSampleRecoversConsistently)
{
    // Acceptance sweep: crashes at arbitrary environment operations
    // (not just WPQ boundaries) must recover to the committed prefix.
    auto opt = sweepFor(GetParam(), "hashmap", 41);
    opt.pointSet = verify::CrashPoints::EveryOp;
    opt.budget = 5;
    const auto result = verify::sweepCrashPoints(opt);
    ASSERT_FALSE(result.points.empty());
    EXPECT_TRUE(result.allPassed())
        << result.firstFailure()
        << "\n  repro: " << verify::describeSweep(opt);
}

TEST_P(ArbitraryCycleCrashSweep, MidRecoveryCrashIsRestartable)
{
    // Compound failure: at every sampled crash point, power dies
    // again two steps into the recovery. The journaled recovery must
    // restart, finish on the second boot, and still satisfy the
    // committed-prefix oracle.
    auto opt = sweepFor(GetParam(), "hashmap", 57);
    opt.pointSet = verify::CrashPoints::EveryOp;
    opt.budget = 4;
    opt.recoveryCrashStep = 2;
    const auto result = verify::sweepCrashPoints(opt);
    ASSERT_FALSE(result.points.empty());
    EXPECT_TRUE(result.allPassed())
        << result.firstFailure()
        << "\n  repro: " << verify::describeSweep(opt);
    for (const auto &p : result.points)
        EXPECT_GE(p.recoveryAttempts, 2u)
            << "crash op " << p.crashOp
            << ": the armed mid-recovery crash never fired ("
            << verify::describeSweep(opt) << ")";
}

TEST_P(ArbitraryCycleCrashSweep, EarlyRecoveryCrashIsRestartable)
{
    // Die at the very first recovery checkpoint (right after the
    // redo-log replay) — the journal must already exist by then.
    auto opt = sweepFor(GetParam(), "btree", 71);
    opt.budget = 2;
    opt.recoveryCrashStep = 0;
    const auto result = verify::sweepCrashPoints(opt);
    ASSERT_FALSE(result.points.empty());
    EXPECT_TRUE(result.allPassed())
        << result.firstFailure()
        << "\n  repro: " << verify::describeSweep(opt);
}

INSTANTIATE_TEST_SUITE_P(
    DolosModes, ArbitraryCycleCrashSweep,
    ::testing::Values(SecurityMode::DolosFullWpq,
                      SecurityMode::DolosPartialWpq,
                      SecurityMode::DolosPostWpq),
    [](const auto &info) {
        return dolos::test::modeLabel(info.param);
    });

TEST(MidRecoveryCrash, DirectRepeatedCrashesDuringOneRecovery)
{
    // Belt-and-braces outside the sweep machinery: crash mid-run,
    // then kill recovery at successive checkpoints on one machine.
    // Serial persist path: checkpoint 3 is a per-dump-entry one, and
    // the default-on pipeline drains the WPQ before the crash so it
    // would never be reached (the optimized machine's mid-recovery
    // crashes are covered by the microstep + recovery-crash sweeps).
    auto cfg = cfgFor(SecurityMode::DolosPartialWpq);
    cfg.secure.bmtPipeline = false;
    System sys(cfg);
    auto wl = makeWorkload("hashmap", smallParams(17));
    CrashPlan plan;
    plan.atOp = 400;
    plan.recoveryCrashStep = 3;
    const auto res = runWorkload(sys, *wl, 20, plan);
    ASSERT_TRUE(res.verified) << res.verifyDiagnostic;
    EXPECT_GE(res.recoveryAttempts, 2u);
    EXPECT_FALSE(sys.attackDetected());
    EXPECT_FALSE(sys.controller().recoveryInProgress());
}

} // namespace
