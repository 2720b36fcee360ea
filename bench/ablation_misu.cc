/**
 * @file
 * Ablation: Dolos design knobs called out in DESIGN.md —
 *  (a) Mi-SU MAC latency sweep (the residual critical-path cost),
 *  (b) write coalescing on/off.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

namespace
{

double
speedupWith(const std::string &wl, const BenchOptions &opts,
            Cycles misu_mac, bool coalescing)
{
    const auto tweak = [&](SystemConfig &cfg) {
        cfg.wpq.coalescing = coalescing;
        cfg.wpq.misuMacLatency = misu_mac;
    };
    const auto rb =
        runOne(wl, SecurityMode::PreWpqSecure, opts, 1024, tweak);
    const auto rd =
        runOne(wl, SecurityMode::DolosPartialWpq, opts, 1024, tweak);
    return rb.cyclesPerTx() / rd.cyclesPerTx();
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Ablation: Mi-SU MAC latency and write coalescing",
                "(beyond the paper)", opts);

    const Cycles macs[] = {40, 80, 160, 320, 640};
    std::printf("Mi-SU MAC latency sweep (Partial-WPQ speedup):\n");
    std::printf("%-12s", "benchmark");
    for (const Cycles m : macs)
        std::printf(" %7llucyc", (unsigned long long)m);
    std::printf("\n");
    for (const auto &wl : workloads::workloadNames()) {
        std::printf("%-12s", wl.c_str());
        for (const Cycles m : macs)
            std::printf(" %9.2fx", speedupWith(wl, opts, m, true));
        std::printf("\n");
    }

    std::printf("\nWrite coalescing (Partial-WPQ speedup):\n");
    std::printf("%-12s %10s %10s\n", "benchmark", "on", "off");
    for (const auto &wl : workloads::workloadNames()) {
        std::printf("%-12s %9.2fx %9.2fx\n", wl.c_str(),
                    speedupWith(wl, opts, 160, true),
                    speedupWith(wl, opts, 160, false));
    }
    return 0;
}
