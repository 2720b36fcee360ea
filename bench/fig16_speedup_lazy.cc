/**
 * @file
 * Figure 16: speedup of the three Mi-SU designs when the Ma-SU uses
 * a lazily-updated Tree of Counters (Phoenix) instead of the eager
 * Merkle tree — the backend security latency drops to 4 MAC
 * computations, so there is less to hide.
 *
 * Paper: average speedups 1.044x (Full), 1.079x (Partial),
 * 1.071x (Post); Full is visibly worst because doubling the Mi-SU
 * MAC latency matters more when the Ma-SU is cheap.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Figure 16: Dolos speedup, lazy ToC scheme, 1024B tx",
                "avg Full=1.044x Partial=1.079x Post=1.071x", opts);

    const SecurityMode designs[] = {SecurityMode::DolosFullWpq,
                                    SecurityMode::DolosPartialWpq,
                                    SecurityMode::DolosPostWpq};

    std::printf("%-12s %10s %10s %10s\n", "benchmark", "Full",
                "Partial", "Post");
    const auto lazy = [](SystemConfig &cfg) {
        cfg.secure.treePolicy = TreeUpdatePolicy::LazyToc;
    };
    std::vector<double> avg[3];
    for (const auto &wl : workloads::workloadNames()) {
        const auto base =
            runOne(wl, SecurityMode::PreWpqSecure, opts, 1024, lazy);
        double speedup[3];
        for (int d = 0; d < 3; ++d) {
            const auto res = runOne(wl, designs[d], opts, 1024, lazy);
            speedup[d] = base.cyclesPerTx() / res.cyclesPerTx();
            avg[d].push_back(speedup[d]);
        }
        std::printf("%-12s %9.3fx %9.3fx %9.3fx\n", wl.c_str(),
                    speedup[0], speedup[1], speedup[2]);
    }
    std::printf("%-12s %9.3fx %9.3fx %9.3fx\n", "average",
                mean(avg[0]), mean(avg[1]), mean(avg[2]));
    return 0;
}
