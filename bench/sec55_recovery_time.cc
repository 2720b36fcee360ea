/**
 * @file
 * Section 5.5: Mi-SU recovery latency after a crash.
 *
 * Paper (Full-WPQ, 16 entries): read back 16 blocks (600 cyc each) +
 * regenerate pads (40 x 16) + drain each entry through Ma-SU/NVM
 * (2100 x 16) + compute fresh pads (40 x 16) = 44480 cycles
 * (~0.01 ms). Partial/Post read two extra MAC blocks but hold fewer
 * entries (15 and 12 block reads respectively).
 *
 * This driver both prints the analytic model and actually performs a
 * crash with a full WPQ followed by a verified recovery.
 */

#include "bench/common.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Section 5.5: Mi-SU recovery latency",
                "Full-WPQ: 16*600 + 16*40 + 16*2100 + 16*40 = 44480 "
                "cycles (~0.01 ms)",
                opts);

    std::printf("%-22s %10s %12s %12s %10s\n", "", "entries",
                "dumped", "cycles", "ms");
    for (const auto mode : {SecurityMode::DolosFullWpq,
                            SecurityMode::DolosPartialWpq,
                            SecurityMode::DolosPostWpq}) {
        System sys(benchConfig(mode, opts));

        // Fill the WPQ, then pull the plug.
        Block data{};
        Tick t = 0;
        for (unsigned i = 0; i < sys.controller().wpqCapacity(); ++i) {
            data[0] = std::uint8_t(i);
            const auto tk = sys.controller().persistBlock(
                Addr(i) * blockSize, data, t);
            t = tk.persistTick;
        }
        const auto dump = sys.controller().crash(t);
        const auto rec = sys.recover();
        if (!rec.misuVerified || !rec.engine.rootVerified) {
            std::fprintf(stderr, "recovery verification failed\n");
            return 1;
        }
        const double ms = double(rec.modeledRecoveryCycles) /
                          double(coreFreqHz) * 1e3;
        std::printf("%-22s %10u %12u %12llu %10.4f\n",
                    securityModeName(mode),
                    sys.controller().wpqCapacity(), dump.entriesDumped,
                    (unsigned long long)rec.modeledRecoveryCycles, ms);
    }
    return 0;
}
