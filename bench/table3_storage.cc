/**
 * @file
 * Table 3: Mi-SU storage overhead for the three designs (16-entry
 * ADR budget) plus the §4.5 volatile tag-array registers.
 *
 * Paper: persistent counter 8B each; MACs 192B / 128B / 128B;
 * encryption pads 72B x 16 / 80B x 13 / 80B x 10.
 */

#include "bench/common.hh"

#include "dolos/misu.hh"

using namespace dolos;
using namespace dolos::bench;

int
main(int argc, char **argv)
{
    const auto opts = BenchOptions::parse(argc, argv);
    printHeader("Table 3: storage overhead of Mi-SU",
                "PCR 8B; MACs 192/128/128B; pads 72Bx16 / 80Bx13 / "
                "80Bx10",
                opts);

    const crypto::MacEngine mac{{1, 2, 3, 4}};
    const crypto::AesKey key{{5, 6, 7, 8}};

    const auto wpq = SystemConfig::paperDefault().wpq;

    std::printf("%-22s %10s %10s %14s %12s\n", "", "PCR", "MACs",
                "pads", "tag array");
    for (const auto mode : {SecurityMode::DolosFullWpq,
                            SecurityMode::DolosPartialWpq,
                            SecurityMode::DolosPostWpq}) {
        const unsigned entries = wpq.entriesFor(mode);
        MiSu misu(modeTraits(mode), entries, wpq.misuMacLatency, key,
                  mac);
        const auto o = misu.storageOverhead();
        char pads[32];
        std::snprintf(pads, sizeof(pads), "%uB x %u",
                      o.padBytes / entries, entries);
        std::printf("%-22s %9uB %9uB %14s %11uB\n",
                    securityModeName(mode),
                    o.persistentCounterBytes, o.macBytes, pads,
                    o.tagArrayBytes);
    }
    return 0;
}
