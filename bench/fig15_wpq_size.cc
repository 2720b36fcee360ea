/**
 * @file
 * Figure 15: sensitivity of Dolos (Partial-WPQ-MiSU) to WPQ size.
 * The baseline uses the full WPQ budget; Partial uses 8/9 of it.
 *
 * Paper: speedup 1.66x / 1.85x / 1.87x / 1.88x for usable sizes
 * 13 / 28 / 57 / 113, with retries/KWR 201.3 / 29.0 / 13.6 / 11.1 —
 * the curve flattens once the WPQ can absorb whole transactions.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Figure 15: speedup vs WPQ size (Partial-WPQ-MiSU)",
                "1.66x/1.85x/1.87x/1.88x at 13/28/57/113 entries; "
                "retries 201/29/14/11", opts);
    BenchReport report("fig15_wpq_size", opts);

    struct Point
    {
        unsigned budget;  ///< baseline entries (full ADR budget)
        unsigned partial; ///< usable Partial entries (8/9)
    };
    const Point points[] = {{16, 13}, {32, 28}, {64, 57}, {128, 113}};

    std::printf("%-12s", "benchmark");
    for (const auto &pt : points)
        std::printf("   wpq=%-4u", pt.partial);
    std::printf("\n");

    std::vector<std::vector<double>> speedups(std::size(points));
    std::vector<std::vector<double>> retries(std::size(points));
    for (const auto &wl : workloads::workloadNames()) {
        std::printf("%-12s", wl.c_str());
        for (std::size_t i = 0; i < std::size(points); ++i) {
            const auto wpq = [&](SystemConfig &cfg) {
                cfg.wpq.adrBudgetEntries = points[i].budget;
                cfg.wpq.partialEntries = points[i].partial;
            };
            const auto base =
                runOne(wl, SecurityMode::PreWpqSecure, opts, 1024, wpq);
            const auto dolos =
                runOne(wl, SecurityMode::DolosPartialWpq, opts, 1024, wpq);
            const double s = base.cyclesPerTx() / dolos.cyclesPerTx();
            speedups[i].push_back(s);
            retries[i].push_back(dolos.retriesPerKwr);
            std::printf(" %9.2fx", s);
            const std::string key =
                wl + ".wpq" + std::to_string(points[i].partial);
            report.add(key + ".speedup", s);
            report.add(key + ".retriesPerKwr", dolos.retriesPerKwr);
        }
        std::printf("\n");
    }
    std::printf("%-12s", "average");
    for (std::size_t i = 0; i < std::size(points); ++i) {
        std::printf(" %9.2fx", mean(speedups[i]));
        report.add("average.wpq" + std::to_string(points[i].partial) +
                       ".speedup",
                   mean(speedups[i]));
    }
    std::printf("\n%-12s", "retries/KWR");
    for (std::size_t i = 0; i < std::size(points); ++i) {
        std::printf(" %10.2f", mean(retries[i]));
        report.add("average.wpq" + std::to_string(points[i].partial) +
                       ".retriesPerKwr",
                   mean(retries[i]));
    }
    std::printf("\n");
    report.write();
    return 0;
}
