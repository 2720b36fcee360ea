/**
 * @file
 * Ablation: NVM bank parallelism. The WPQ drain posts data, shadow
 * and counter writes to the banks; with few banks the drain becomes
 * NVM-bound instead of MAC-bound, which squeezes Dolos' window for
 * hiding work behind the WPQ.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Ablation: NVM bank count (Partial-WPQ speedup)",
                "(beyond the paper; Table 1 system uses 8 banks)",
                opts);

    const unsigned banks[] = {1, 2, 4, 8, 16};
    std::printf("%-12s", "benchmark");
    for (const unsigned b : banks)
        std::printf("  banks=%-3u", b);
    std::printf("\n");

    for (const auto &wl : workloads::workloadNames()) {
        std::printf("%-12s", wl.c_str());
        for (const unsigned b : banks) {
            const auto tweak = [b](SystemConfig &cfg) {
                cfg.nvm.numBanks = b;
            };
            const auto base =
                runOne(wl, SecurityMode::PreWpqSecure, opts, 1024, tweak);
            const auto dolos = runOne(wl, SecurityMode::DolosPartialWpq,
                                      opts, 1024, tweak);
            std::printf(" %8.2fx",
                        base.cyclesPerTx() / dolos.cyclesPerTx());
        }
        std::printf("\n");
    }
    return 0;
}
