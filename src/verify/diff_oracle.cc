/**
 * @file
 * Differential crash oracle implementation.
 */

#include "verify/diff_oracle.hh"

#include <cstdio>
#include "sim/profiler.hh"

namespace dolos::verify
{

std::string
OracleReport::summary() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "oracle: %llu blocks, %llu committed / %llu in-flight"
                  " / %llu untouched bytes, %llu violations",
                  (unsigned long long)blocksScanned,
                  (unsigned long long)committedBytes,
                  (unsigned long long)inFlightBytes,
                  (unsigned long long)untouchedBytes,
                  (unsigned long long)violations);
    std::string out = buf;
    if (!diagnostics.empty())
        out += "; first: " + diagnostics.front();
    return out;
}

OracleReport
checkAgainstGolden(System &sys, GoldenModel &golden)
{
    return checkAgainstGolden(sys, golden, {});
}

OracleReport
checkAgainstGolden(System &sys, GoldenModel &golden,
                   const std::set<Addr> &skip)
{
    DOLOS_PROF_SCOPE(Verify);
    OracleReport report;

    // Classify before the sweep: reading resolves in-flight bytes.
    auto tracked = golden.trackedBlocks();
    if (!skip.empty()) {
        std::erase_if(tracked, [&](Addr block) {
            return skip.count(blockAlign(block)) != 0;
        });
    }
    for (const Addr block : tracked) {
        const BlockCensus c = golden.census(block);
        report.committedBytes += c.committed;
        report.inFlightBytes += c.inFlight;
        report.untouchedBytes += c.untouched;
    }

    // The sweep: every tracked block read through the real core; the
    // golden model adjudicates each byte via the observer path.
    Block buf;
    for (const Addr block : tracked) {
        sys.core().load(block, buf.data(), blockSize);
        ++report.blocksScanned;
    }

    report.violations = golden.violationCount();
    report.diagnostics = golden.diagnostics();
    return report;
}

std::set<Addr>
mediaSkipSet(System &sys, const GoldenModel &golden)
{
    std::set<Addr> skip;
    for (const Addr block : golden.trackedBlocks())
        if (sys.nvmDevice().hasUnhealableFault(block))
            skip.insert(blockAlign(block));
    return skip;
}

} // namespace dolos::verify
