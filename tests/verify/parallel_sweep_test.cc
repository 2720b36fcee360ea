/**
 * @file
 * Parallel sweep equivalence: sweepCrashPoints with jobs > 1 must
 * produce a result *bit-identical* to the serial run — same chosen
 * points in the same slots, same verdict, oracle counters, microstep
 * names, and recovery-attempt counts per point. Each crash point is a
 * fully self-contained replay (fresh System, golden model, and
 * thread-local crash-point registry), so worker scheduling must be
 * unobservable in the result. This is the contract behind the
 * `--jobs N` flag on dolos_torture and behind REPRO lines staying
 * valid across any jobs value.
 */

#include <gtest/gtest.h>

#include "tests/integration/integration_common.hh"
#include "verify/sweep_driver.hh"
#include "workloads/runner.hh"

namespace
{

using namespace dolos;
using dolos::test::cfgFor;
using dolos::test::smallParams;

verify::SweepOptions
microstepSweep(SecurityMode mode, std::uint64_t seed)
{
    verify::SweepOptions opt;
    opt.mode = mode;
    opt.workload = "hashmap";
    opt.numTx = 4;
    opt.params = smallParams(seed);
    opt.base = cfgFor(mode);
    opt.pointSet = verify::CrashPoints::Microstep;
    opt.budget = 8;
    opt.sampleSeed = seed;
    return opt;
}

void
expectIdentical(const verify::SweepResult &serial,
                const verify::SweepResult &parallel)
{
    EXPECT_EQ(serial.boundaries, parallel.boundaries);
    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        const auto &s = serial.points[i];
        const auto &p = parallel.points[i];
        EXPECT_EQ(s.crashOp, p.crashOp) << "slot " << i;
        EXPECT_EQ(s.structureVerified, p.structureVerified)
            << "slot " << i;
        EXPECT_EQ(s.attackDetected, p.attackDetected) << "slot " << i;
        EXPECT_EQ(s.crashFired, p.crashFired) << "slot " << i;
        EXPECT_EQ(s.recoveryAttempts, p.recoveryAttempts)
            << "slot " << i;
        EXPECT_EQ(s.microstep, p.microstep) << "slot " << i;
        EXPECT_EQ(s.expectedLoss, p.expectedLoss) << "slot " << i;
        EXPECT_EQ(s.oracle.blocksScanned, p.oracle.blocksScanned)
            << "slot " << i;
        EXPECT_EQ(s.oracle.committedBytes, p.oracle.committedBytes)
            << "slot " << i;
        EXPECT_EQ(s.oracle.inFlightBytes, p.oracle.inFlightBytes)
            << "slot " << i;
        EXPECT_EQ(s.oracle.untouchedBytes, p.oracle.untouchedBytes)
            << "slot " << i;
        EXPECT_EQ(s.oracle.violations, p.oracle.violations)
            << "slot " << i;
        EXPECT_EQ(s.oracle.diagnostics, p.oracle.diagnostics)
            << "slot " << i;
    }
}

class ParallelSweep : public ::testing::TestWithParam<SecurityMode>
{
};

TEST_P(ParallelSweep, MicrostepJobs4MatchesSerialBitForBit)
{
    auto opt = microstepSweep(GetParam(), 29);
    opt.jobs = 1;
    const auto serial = verify::sweepCrashPoints(opt);
    ASSERT_FALSE(serial.points.empty());
    EXPECT_TRUE(serial.allPassed())
        << serial.firstFailure()
        << "\n  repro: " << verify::describeSweep(opt);

    opt.jobs = 4;
    const auto parallel = verify::sweepCrashPoints(opt);
    expectIdentical(serial, parallel);
}

TEST_P(ParallelSweep, MoreWorkersThanPointsStillMatches)
{
    // Degenerate split: more workers than crash points. The driver
    // clamps the pool to the point count; the result must not change.
    auto opt = microstepSweep(GetParam(), 31);
    opt.budget = 3;
    opt.jobs = 1;
    const auto serial = verify::sweepCrashPoints(opt);
    ASSERT_FALSE(serial.points.empty());

    opt.jobs = 16;
    const auto parallel = verify::sweepCrashPoints(opt);
    expectIdentical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ParallelSweep,
    ::testing::Values(SecurityMode::DolosPartialWpq,
                      SecurityMode::EadrSecure),
    [](const auto &info) {
        return dolos::test::modeLabel(info.param);
    });

} // namespace
