/**
 * @file
 * The campaign runner (verify/campaign.hh) and the sweep summary it
 * feeds: slots and counts must not depend on the worker count, the
 * lowest-index exception surfaces only after every worker has joined,
 * and a sweep's summary comes from the sweep's own monitor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/json.hh"
#include "tests/integration/integration_common.hh"
#include "verify/campaign.hh"
#include "verify/sweep_driver.hh"

namespace
{

using namespace dolos;
using namespace dolos::verify;

/** A summary record, parsed. */
json::Value
summaryOf(const std::string &record)
{
    const auto v = json::parse(record);
    EXPECT_TRUE(v) << record;
    return v.value_or(json::Value());
}

std::vector<double>
failedSeeds(const json::Value &summary)
{
    std::vector<double> out;
    if (const auto *seeds = summary.find("failedSeeds"))
        for (const auto &v : seeds->array())
            out.push_back(v.number());
    return out;
}

TEST(CampaignRunner, SlotsAndCountsAreTheSameForAnyJobs)
{
    for (const std::size_t n : {0, 1, 2, 5, 200}) {
        for (const unsigned jobs : {1u, 3u, 16u}) {
            CampaignMonitor monitor("test", n, 0, nullptr);
            std::vector<unsigned> runs(n, 0);
            const auto caller = std::this_thread::get_id();
            std::vector<std::size_t> order;
            runCampaign(n, jobs, monitor, [&](std::size_t k) {
                ++runs[k];
                if (jobs == 1) {
                    EXPECT_EQ(std::this_thread::get_id(), caller);
                    order.push_back(k);
                }
                return CaseVerdict{1000 + k, k % 5 == 0};
            });
            const auto where = "n=" + std::to_string(n) +
                               " jobs=" + std::to_string(jobs);
            EXPECT_EQ(runs, std::vector<unsigned>(n, 1)) << where;
            EXPECT_EQ(order.size(), jobs == 1 ? n : 0) << where;
            for (std::size_t k = 0; k < order.size(); ++k)
                EXPECT_EQ(order[k], k) << where;
            EXPECT_EQ(monitor.done(), n) << where;
            EXPECT_EQ(monitor.failures(), (n + 4) / 5) << where;
            // The summary keeps the lowest failing seeds, in order.
            std::vector<double> lowest;
            for (std::size_t k = 0; k < n; k += 5)
                if (lowest.size() < CampaignMonitor::maxFailedSeeds)
                    lowest.push_back(double(1000 + k));
            EXPECT_EQ(failedSeeds(summaryOf(monitor.summary())), lowest)
                << where;
        }
    }
}

TEST(CampaignRunner, LowestIndexExceptionIsRethrownAfterJoin)
{
    for (const unsigned jobs : {1u, 3u, 16u}) {
        CampaignMonitor monitor("test", 8, 0, nullptr);
        std::atomic<int> running{0};
        try {
            runCampaign(8, jobs, monitor, [&](std::size_t k) {
                struct Scope
                {
                    std::atomic<int> &r;
                    explicit Scope(std::atomic<int> &r) : r(r) { ++r; }
                    ~Scope() { --r; }
                } scope(running);
                if (k == 2) {
                    // Let case 5 throw first on a parallel run.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("case 2");
                }
                if (k == 5)
                    throw std::runtime_error("case 5");
                return CaseVerdict{k, false};
            });
            ADD_FAILURE() << "no exception, jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "case 2") << "jobs=" << jobs;
            EXPECT_EQ(running.load(), 0) << "jobs=" << jobs;
        }
        EXPECT_LE(monitor.done(), 6u);
    }
}

TEST(SweepSummary, ComesFromTheSweepsOwnMonitor)
{
    // Exhaustive every-op sweep: a few hundred points, long enough for
    // a nonzero two-decimal elapsedSec.
    SweepOptions opt;
    opt.numTx = 3;
    opt.params = test::smallParams(9);
    opt.base = test::smallCacheCfgFor(opt.mode);
    opt.pointSet = CrashPoints::EveryOp;
    opt.jobs = 2;
    const auto start = std::chrono::steady_clock::now();
    const auto result = sweepCrashPoints(opt);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    ASSERT_GT(result.points.size(), 100u) << describeSweep(opt);

    const auto summary = summaryOf(result.summary);
    const auto number = [&](const char *key) {
        const auto *v = summary.find(key);
        return v ? v->number() : -1.0;
    };
    EXPECT_EQ(number("done"), double(result.points.size()));
    EXPECT_EQ(number("failures"), double(result.failures()));
    EXPECT_GT(number("elapsedSec"), 0.0) << result.summary;
    EXPECT_LE(number("elapsedSec"), wall.count() + 0.01) << result.summary;
    std::vector<double> failing;
    for (const auto &p : result.points)
        if (!p.passed() && failing.size() < CampaignMonitor::maxFailedSeeds)
            failing.push_back(double(p.crashOp));
    EXPECT_EQ(failedSeeds(summary), failing);
}

} // namespace
