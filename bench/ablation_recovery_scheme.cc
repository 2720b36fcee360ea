/**
 * @file
 * Ablation: Anubis shadow table vs. Osiris ECC-probe counter
 * recovery as the Ma-SU crash-consistency scheme (paper §4.4/§6).
 *
 * Anubis spends ~2 extra NVM writes per secure write (the shadow
 * entry) but recovers by scanning only the small shadow region;
 * Osiris writes counters through every K updates but must probe
 * every data block at recovery. Dolos runs on either.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Ablation: Anubis vs Osiris crash consistency",
                "(paper builds on both; runtime-traffic vs "
                "recovery-work trade)",
                opts);

    std::printf("%-12s %16s %16s %14s %14s\n", "benchmark",
                "speedup(Anubis)", "speedup(Osiris)", "nvmW(Anubis)",
                "nvmW(Osiris)");
    for (const auto &wl : workloads::workloadNames()) {
        double speedup[2];
        std::uint64_t nvm_writes[2];
        const CrashScheme schemes[] = {CrashScheme::Anubis,
                                       CrashScheme::Osiris};
        for (int s = 0; s < 2; ++s) {
            const auto scheme = [&](SystemConfig &cfg) {
                cfg.secure.crashScheme = schemes[s];
            };
            const auto rb =
                runOne(wl, SecurityMode::PreWpqSecure, opts, 1024, scheme);
            System dolos(
                benchConfig(SecurityMode::DolosPartialWpq, opts, scheme));
            const auto rd =
                runVerified(dolos, wl, presetFor(wl, opts), opts);
            speedup[s] = rb.cyclesPerTx() / rd.cyclesPerTx();
            nvm_writes[s] = dolos.nvmDevice().writes();
        }
        std::printf("%-12s %15.2fx %15.2fx %14llu %14llu\n",
                    wl.c_str(), speedup[0], speedup[1],
                    (unsigned long long)nvm_writes[0],
                    (unsigned long long)nvm_writes[1]);
    }

    // Recovery-side contrast: same write sequence, then a crash.
    std::printf("\nrecovery work after 500 writes:\n");
    for (int s = 0; s < 2; ++s) {
        System sys(benchConfig(
            SecurityMode::DolosPartialWpq, opts, [s](SystemConfig &cfg) {
                cfg.secure.crashScheme =
                    s == 0 ? CrashScheme::Anubis : CrashScheme::Osiris;
            }));
        Block b{};
        Tick t = 0;
        Random rng(7);
        for (int i = 0; i < 500; ++i) {
            const Addr a = blockAlign(rng.below(64 * pageBytes));
            b[0] = std::uint8_t(i);
            const auto tk = sys.controller().persistBlock(a, b, t);
            t = tk.persistTick + 4000;
        }
        sys.crash();
        const auto rec = sys.recover();
        std::printf("  %-8s shadowApplied=%zu osirisProbed=%zu "
                    "advanced=%zu rootVerified=%d\n",
                    s == 0 ? "Anubis" : "Osiris",
                    rec.engine.shadowApplied, rec.engine.osirisProbed,
                    rec.engine.osirisAdvanced,
                    int(rec.engine.rootVerified));
    }
    return 0;
}
