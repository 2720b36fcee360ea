/**
 * @file
 * Persist-path optimization lever: off-vs-on stall-cycle breakdown
 * per Dolos mode on the heaviest-WPQ-pressure workload (hashmap).
 *
 * The lever (bmtPipeline) is timing-only — the crash sweeps in
 * tests/integration/crash_sweep_test.cc run both lever states under
 * the golden-model oracle — so this driver reports what it buys: the
 * combined wpqStallCycles + bmtCycles account must drop by at least
 * 10% with the lever on (checked at gate-sized runs), and the
 * recorded baseline locks the per-stage numbers at a 2% drift
 * threshold.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

namespace
{

struct Leg
{
    std::uint64_t wpqStallCycles = 0;
    std::uint64_t bmtCycles = 0;
    std::uint64_t macCycles = 0;
    std::uint64_t aesCycles = 0;
    std::uint64_t ctrFetchCycles = 0;
    std::uint64_t fenceStallCycles = 0;
    std::uint64_t runCycles = 0;
    double cyclesPerTx = 0.0;

    std::uint64_t
    stallPlusBmt() const
    {
        return wpqStallCycles + bmtCycles;
    }
};

Leg
runLeg(const std::string &workload, SecurityMode mode,
       const BenchOptions &opts, bool bmt_pipeline)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    cfg.secure.bmtPipeline = bmt_pipeline;
    System sys(cfg);
    const auto res =
        runVerified(sys, workload, presetFor(workload, opts), opts);
    Leg leg;
    leg.wpqStallCycles = sys.controller().wpqStallCycles();
    leg.bmtCycles = sys.engine().bmtCycles();
    leg.macCycles = sys.engine().macCycles();
    leg.aesCycles = sys.engine().aesCycles();
    leg.ctrFetchCycles = sys.engine().ctrFetchCycles();
    leg.fenceStallCycles = res.fenceStallCycles;
    leg.runCycles = res.runCycles;
    leg.cyclesPerTx = res.cyclesPerTx();
    return leg;
}

void
reportLeg(BenchReport &report, const std::string &prefix,
          const Leg &leg)
{
    report.add(prefix + ".wpqStallCycles",
               double(leg.wpqStallCycles));
    report.add(prefix + ".bmtCycles", double(leg.bmtCycles));
    report.add(prefix + ".macCycles", double(leg.macCycles));
    report.add(prefix + ".aesCycles", double(leg.aesCycles));
    report.add(prefix + ".ctrFetchCycles",
               double(leg.ctrFetchCycles));
    report.add(prefix + ".fenceStallCycles",
               double(leg.fenceStallCycles));
    report.add(prefix + ".runCycles", double(leg.runCycles));
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader(
        "Persist-path lever: bmtPipeline, off vs on",
        "timing-only lever; >= 10% combined wpqStall+bmt reduction "
        "on hashmap",
        opts);
    BenchReport report("opt_persist_path", opts);

    const struct
    {
        SecurityMode mode;
        const char *tag;
    } modes[] = {{SecurityMode::DolosFullWpq, "full"},
                 {SecurityMode::DolosPartialWpq, "partial"},
                 {SecurityMode::DolosPostWpq, "post"}};
    const std::string workload = "hashmap";

    bool met = true;
    for (const auto &m : modes) {
        const Leg a = runLeg(workload, m.mode, opts, false);
        const Leg b = runLeg(workload, m.mode, opts, true);

        std::printf("\n%s on %s\n", workload.c_str(),
                    securityModeName(m.mode));
        std::printf("  %-18s %14s %14s\n", "stage", "off", "on");
        const struct
        {
            const char *name;
            std::uint64_t off, on;
        } rows[] = {
            {"wpqStallCycles", a.wpqStallCycles, b.wpqStallCycles},
            {"bmtCycles", a.bmtCycles, b.bmtCycles},
            {"macCycles", a.macCycles, b.macCycles},
            {"aesCycles", a.aesCycles, b.aesCycles},
            {"ctrFetchCycles", a.ctrFetchCycles, b.ctrFetchCycles},
            {"fenceStallCycles", a.fenceStallCycles,
             b.fenceStallCycles},
            {"runCycles", a.runCycles, b.runCycles},
        };
        for (const auto &row : rows)
            std::printf("  %-18s %14llu %14llu\n", row.name,
                        (unsigned long long)row.off,
                        (unsigned long long)row.on);

        const double reduction =
            a.stallPlusBmt()
                ? 100.0 *
                      double(a.stallPlusBmt() - b.stallPlusBmt()) /
                      double(a.stallPlusBmt())
                : 0.0;
        const double speedup =
            b.cyclesPerTx ? a.cyclesPerTx / b.cyclesPerTx : 1.0;
        std::printf("  stall+bmt %llu -> %llu  (-%.1f%%), "
                    "speedup %.2fx\n",
                    (unsigned long long)a.stallPlusBmt(),
                    (unsigned long long)b.stallPlusBmt(), reduction,
                    speedup);

        const std::string prefix = workload + "." + m.tag;
        reportLeg(report, prefix + ".off", a);
        reportLeg(report, prefix + ".on", b);
        report.add(prefix + ".stallPlusBmtReductionPct", reduction);
        report.add(prefix + ".speedup", speedup);

        // The headline acceptance bar, enforced at gate-sized runs
        // (tiny smoke runs are too short for a stable percentage).
        if (opts.txns >= 40 && reduction < 10.0) {
            std::fprintf(stderr,
                         "FAIL: stall+bmt reduction %.1f%% < 10%% "
                         "on %s %s\n",
                         reduction, workload.c_str(),
                         securityModeName(m.mode));
            met = false;
        }
    }
    report.write();
    return met ? 0 : 1;
}
