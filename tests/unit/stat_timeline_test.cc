/**
 * @file
 * End-to-end timeline telemetry contract on a real workload run:
 *
 *  1. Reconciliation — every per-window delta series the sampler
 *     records during a hashmap run sums exactly to the end-of-run
 *     stat totals (no window is lost, double-counted, or clipped).
 *  2. Non-perturbation — the sampler is a pure observer: a run with
 *     sampling attached finishes with bit-identical final stats and
 *     cycle counts to the same run without it.
 *  3. Host work — the self-profiler is an observer too, and the
 *     number of times each component is entered on a fixed run is an
 *     exact, host-independent count of the simulator's work.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dolos/system.hh"
#include "sim/profiler.hh"
#include "sim/stat_sampler.hh"
#include "workloads/runner.hh"

namespace
{

using namespace dolos;
using namespace dolos::workloads;

SystemConfig
testConfig()
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.secure.functionalLeaves = 8192;
    cfg.secure.map.protectedBytes = Addr(8192) * pageBytes;
    return cfg;
}

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.txSize = 256;
    p.numKeys = 64;
    p.seed = 9;
    p.thinkTime = 500;
    p.readsPerTx = 1;
    return p;
}

RunResult
run(System &sys, std::uint64_t txns = 80)
{
    auto wl = makeWorkload("hashmap", smallParams());
    return runWorkload(sys, *wl, txns);
}

TEST(StatTimeline, WindowDeltasReconcileWithFinalStats)
{
    System sys(testConfig());
    stats::StatSampler sampler(10000);
    sys.attachStatSampler(&sampler);
    sampler.begin(sys.core().now());

    const auto res = run(sys);
    ASSERT_TRUE(res.verified) << res.verifyDiagnostic;
    sampler.finish(sys.core().now());
    sys.attachStatSampler(nullptr);

    ASSERT_GT(sampler.windowCount(), 1u)
        << "run too short to cross a sampling boundary";

    // Every scalar's windowed deltas sum exactly to its final value
    // (the system and its stats started at zero).
    for (const auto &col : sampler.scalarColumns()) {
        std::uint64_t total = 0;
        for (const auto d : col.deltas)
            total += d;
        EXPECT_EQ(total, col.stat->value()) << col.path;
    }
    for (const auto &col : sampler.averageColumns()) {
        double sum = 0;
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < col.sums.size(); ++i) {
            sum += col.sums[i];
            n += col.counts[i];
        }
        EXPECT_DOUBLE_EQ(sum, col.stat->total()) << col.path;
        EXPECT_EQ(n, col.stat->samples()) << col.path;
    }
    for (const auto &col : sampler.histColumns()) {
        std::uint64_t n = 0;
        for (const auto &w : col.windows)
            n += w.samples;
        EXPECT_EQ(n, col.stat->samples()) << col.path;
    }

    // Windows tile the run contiguously from the first poll to the
    // finish tick.
    const auto &starts = sampler.windowStarts();
    const auto &ends = sampler.windowEnds();
    for (std::size_t i = 1; i < starts.size(); ++i)
        EXPECT_EQ(starts[i], ends[i - 1]);
    EXPECT_EQ(ends.back(), sys.core().now());

    // The derived persist-path series exist and are window-aligned.
    const auto derived = sampler.derivedSeries();
    ASSERT_EQ(derived.size(), 2u);
    for (const auto &[name, series] : derived)
        EXPECT_EQ(series.size(), sampler.windowCount()) << name;
}

TEST(StatTimeline, SamplingDoesNotPerturbTheSimulation)
{
    // Reference run: no sampler.
    System plain(testConfig());
    const auto ref = run(plain);
    ASSERT_TRUE(ref.verified) << ref.verifyDiagnostic;
    std::ostringstream refStats;
    plain.dumpStatsJson(refStats);

    // Sampled run: identical config and workload, dense sampling.
    System sampled(testConfig());
    stats::StatSampler sampler(1000);
    sampled.attachStatSampler(&sampler);
    sampler.begin(sampled.core().now());
    const auto res = run(sampled);
    sampler.finish(sampled.core().now());
    sampled.attachStatSampler(nullptr);

    // The sampler is an observer: simulated time and every final
    // stat must be bit-identical, window state notwithstanding.
    EXPECT_EQ(res.runCycles, ref.runCycles);
    EXPECT_EQ(res.instructions, ref.instructions);
    std::ostringstream sampledStats;
    sampled.dumpStatsJson(sampledStats);
    EXPECT_EQ(sampledStats.str(), refStats.str());
}

TEST(StatTimeline, SelfProfilerPinsHostWorkAndDoesNotPerturb)
{
#if !DOLOS_SELFPROF
    GTEST_SKIP() << "self-profiler compiled out (DOLOS_SELFPROF=0)";
#else
    // hashmap on the paper machine in Dolos-Partial, 64 keys, seed 7,
    // 300 transactions. Returns the run's final stat JSON; the call
    // counts stay in the profiler.
    const auto run_once = [](bool profile) {
        auto cfg = SystemConfig::paperDefault();
        cfg.mode = SecurityMode::DolosPartialWpq;
        System sys(cfg);
        WorkloadParams params;
        params.numKeys = 64;
        params.seed = 7;
        auto wl = makeWorkload("hashmap", params);
        auto &prof = prof::Profiler::instance();
        if (profile)
            prof.enable();
        const auto res = runWorkload(sys, *wl, 300);
        prof.disable();
        EXPECT_TRUE(res.verified) << res.verifyDiagnostic;
        std::ostringstream os;
        sys.dumpStatsJson(os);
        return os.str();
    };

    const std::string plain_stats = run_once(false);
    EXPECT_EQ(run_once(true), plain_stats);

    // A change to these counts is a change to the simulator's host
    // work: re-pin them only when that change is intended.
    using prof::Comp;
    const std::pair<Comp, std::uint64_t> expected[] = {
        {Comp::Core, 25414},       {Comp::CacheModel, 22800},
        {Comp::Controller, 67215}, {Comp::SecurityEngine, 13434},
        {Comp::Aes, 51968},        {Comp::Mac, 49859},
        {Comp::Sha, 0},            {Comp::CtrPad, 12992},
        {Comp::Nvm, 38844},        {Comp::Verify, 0},
    };
    auto &prof = prof::Profiler::instance();
    for (const auto &[comp, calls] : expected)
        EXPECT_EQ(prof.calls(comp), calls) << prof::compName(comp);
    prof.reset();
#endif
}

} // namespace
