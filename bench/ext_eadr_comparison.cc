/**
 * @file
 * Extension: how close does Dolos get to an eADR-class system?
 *
 * The paper's introduction argues that extending ADR to eADR (enough
 * backup energy to run the full security pipeline — or flush whole
 * caches — at power-fail time) is costly and non-standard, and that
 * Dolos should capture most of the benefit within the standard ADR
 * envelope. The eADR reference here is the real EadrSecure machine
 * mode: dirty cache lines sit inside the persistence domain, CLWB
 * completes locally (no fence stalls), and the crash path runs the
 * energy-bounded holdup flush.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Extension: Dolos vs eADR-class secure system",
                "(beyond the paper; eADR == caches in the persistence "
                "domain, holdup flush at power fail)",
                opts);
    BenchReport report("ext_eadr", opts);

    const SecurityMode designs[] = {SecurityMode::DolosFullWpq,
                                    SecurityMode::DolosPartialWpq,
                                    SecurityMode::DolosPostWpq};

    std::printf("%-12s %9s %10s %10s %10s   %s\n", "benchmark", "eADR",
                "Full", "Partial", "Post", "(speedup over baseline)");
    std::vector<double> frac[3];
    for (const auto &wl : workloads::workloadNames()) {
        const auto base = runOne(wl, SecurityMode::PreWpqSecure, opts);
        const auto eadr = runOne(wl, SecurityMode::EadrSecure, opts);
        const double eadr_speedup =
            base.cyclesPerTx() / eadr.cyclesPerTx();
        report.add(wl + ".eadrSpeedup", eadr_speedup);
        double s[3];
        for (int d = 0; d < 3; ++d) {
            const auto res = runOne(wl, designs[d], opts);
            s[d] = base.cyclesPerTx() / res.cyclesPerTx();
            // Fraction of the (real) eADR *gain* captured.
            frac[d].push_back((s[d] - 1.0) / (eadr_speedup - 1.0));
        }
        report.add(wl + ".fullSpeedup", s[0]);
        report.add(wl + ".partialSpeedup", s[1]);
        report.add(wl + ".postSpeedup", s[2]);
        std::printf("%-12s %8.2fx %9.2fx %9.2fx %9.2fx\n", wl.c_str(),
                    eadr_speedup, s[0], s[1], s[2]);
    }
    std::printf("\nfraction of the eADR gain captured at standard "
                "ADR cost:\n");
    std::printf("%-12s %10.0f%% %9.0f%% %9.0f%%\n", "average",
                100 * mean(frac[0]), 100 * mean(frac[1]),
                100 * mean(frac[2]));
    report.add("avg.fracFull", mean(frac[0]));
    report.add("avg.fracPartial", mean(frac[1]));
    report.add("avg.fracPost", mean(frac[2]));
    report.write();
    return 0;
}
