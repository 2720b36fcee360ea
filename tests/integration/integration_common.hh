/**
 * @file
 * Shared configuration helpers for the integration test suite.
 *
 * Every integration test wants the same things: a paper-default
 * system scaled down so runs finish in CI time (a small functional
 * tree, optionally small caches to force eviction traffic) and small
 * workload parameters. Keeping them here keeps the suites in
 * agreement about what "small" means.
 */

#ifndef DOLOS_TESTS_INTEGRATION_COMMON_HH
#define DOLOS_TESTS_INTEGRATION_COMMON_HH

#include <string>
#include <vector>

#include "dolos/config.hh"
#include "verify/sweep_driver.hh"

namespace dolos::test
{

/** Paper defaults with a small functional tree (8K pages). */
inline SystemConfig
cfgFor(SecurityMode mode)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    cfg.secure.functionalLeaves = 8192;
    cfg.secure.map.protectedBytes = Addr(8192) * pageBytes;
    return cfg;
}

/** The small crash-test machine (8K pages, eviction-heavy caches). */
inline SystemConfig
smallCacheCfgFor(SecurityMode mode)
{
    return verify::crashTestConfig(mode);
}

/** Workload parameters small enough for crash sweeps. */
inline workloads::WorkloadParams
smallParams(std::uint64_t seed)
{
    return verify::crashTestParams(seed);
}

/** All six controller organizations. */
inline std::vector<SecurityMode>
allModes()
{
    return {SecurityMode::NonSecureIdeal,
            SecurityMode::PreWpqSecure,
            SecurityMode::PostWpqUnprotected,
            SecurityMode::DolosFullWpq,
            SecurityMode::DolosPartialWpq,
            SecurityMode::DolosPostWpq};
}

/** The modes with a full security engine in the read/write path. */
inline std::vector<SecurityMode>
secureModes()
{
    return {SecurityMode::PreWpqSecure,
            SecurityMode::DolosFullWpq,
            SecurityMode::DolosPartialWpq,
            SecurityMode::DolosPostWpq};
}

/** Mode name stripped to a valid gtest parameter label. */
inline std::string
modeLabel(SecurityMode mode)
{
    std::string out;
    for (const char c : std::string(securityModeName(mode)))
        if (c != '-')
            out.push_back(c);
    return out;
}

} // namespace dolos::test

#endif // DOLOS_TESTS_INTEGRATION_COMMON_HH
