/**
 * @file
 * Ablation: serialized vs pipelined backend engine. The paper's
 * baseline and Ma-SU update the tree levels serially ("similar to
 * prior work"); secure.bmtPipeline models per-level update engines
 * that stream overlapping root paths (Freij et al. MICRO'20) and
 * free the engine front one MAC slot after a write's metadata is
 * ready. The driver sweeps bmtPipeline off/on itself, so
 * --opt-knobs (which sets bmtPipeline) does not change it.
 *
 * Pipelining shrinks the baseline's front-side queueing, so Dolos'
 * advantage contracts — quantifying how much of Dolos' win comes
 * from hiding *serialized* backend latency. The last columns show
 * what the pipelined engine does to Dolos-Partial itself.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Ablation: serialized vs pipelined backend engine",
                "(beyond the paper; paper model = serialized)", opts);
    const auto runBackend = [&](const std::string &wl, SecurityMode mode,
                                bool pipelined) {
        return runOne(wl, mode, opts, 1024, [=](SystemConfig &cfg) {
            cfg.secure.bmtPipeline = pipelined;
        });
    };

    std::printf("%-12s %16s %16s %18s %16s %16s %8s\n", "benchmark",
                "speedup(serial)", "speedup(piped)",
                "piped-dolos/serial-base", "dolos-cyc/tx(s)",
                "dolos-cyc/tx(p)", "delta");
    const auto base = SecurityMode::PreWpqSecure;
    const auto dolos = SecurityMode::DolosPartialWpq;
    std::vector<double> s1, s2, s3;
    for (const auto &wl : workloads::workloadNames()) {
        const auto base_s = runBackend(wl, base, false);
        const auto dolos_s = runBackend(wl, dolos, false);
        const auto base_p = runBackend(wl, base, true);
        const auto dolos_p = runBackend(wl, dolos, true);
        const double serial =
            base_s.cyclesPerTx() / dolos_s.cyclesPerTx();
        const double piped =
            base_p.cyclesPerTx() / dolos_p.cyclesPerTx();
        const double combined =
            base_s.cyclesPerTx() / dolos_p.cyclesPerTx();
        s1.push_back(serial);
        s2.push_back(piped);
        s3.push_back(combined);
        const double delta =
            (dolos_p.cyclesPerTx() / dolos_s.cyclesPerTx() - 1) * 100;
        std::printf("%-12s %15.2fx %15.2fx %17.2fx %16.0f %16.0f "
                    "%+7.1f%%\n",
                    wl.c_str(), serial, piped, combined,
                    dolos_s.cyclesPerTx(), dolos_p.cyclesPerTx(), delta);
    }
    std::printf("%-12s %15.2fx %15.2fx %17.2fx\n", "average",
                mean(s1), mean(s2), mean(s3));
    return 0;
}
