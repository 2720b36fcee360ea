/**
 * @file
 * google-benchmark microbenchmarks for the simulation substrate:
 * host cost of cache accesses, of building and crashing a machine,
 * of WPQ insert/drain paths, and of whole secure-write operations —
 * the numbers that bound how many simulated transactions (and crash
 * points) per second the harness sustains.
 */

#include <benchmark/benchmark.h>

#include "dolos/system.hh"

using namespace dolos;

namespace
{

SystemConfig
benchConfig(SecurityMode mode)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    return cfg;
}

void
BM_CacheHitLoad(benchmark::State &state)
{
    System sys(benchConfig(SecurityMode::NonSecureIdeal));
    std::uint64_t v = 1;
    sys.core().store(0x1000, &v, sizeof(v));
    for (auto _ : state) {
        std::uint64_t out;
        sys.core().load(0x1000, &out, sizeof(out));
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_CacheHitLoad);

/**
 * What every crash point pays before replaying anything: build the
 * default machine, touch one block, and crash it.
 */
void
BM_SystemBuildAndCrash(benchmark::State &state)
{
    const auto cfg = benchConfig(SecurityMode::DolosPartialWpq);
    std::uint64_t v = 1;
    for (auto _ : state) {
        System sys(cfg);
        sys.core().store(0x1000, &v, sizeof(v));
        benchmark::DoNotOptimize(sys.crash());
    }
}
BENCHMARK(BM_SystemBuildAndCrash)->Unit(benchmark::kMillisecond);

void
BM_SecureWriteThroughEngine(benchmark::State &state)
{
    auto cfg = benchConfig(SecurityMode::PreWpqSecure);
    NvmDevice nvm(cfg.nvm);
    SecurityEngine eng(cfg.secure, nvm);
    Block b{};
    Tick t = 0;
    Addr addr = 0;
    for (auto _ : state) {
        b[0] = std::uint8_t(t);
        const auto res = eng.secureWrite(addr, b, t);
        t = res.doneTick;
        addr = (addr + blockSize) % (1024 * blockSize);
        benchmark::DoNotOptimize(res);
    }
}
BENCHMARK(BM_SecureWriteThroughEngine);

void
BM_WpqInsertAndDrain(benchmark::State &state)
{
    const auto mode = state.range(0) == 0
                          ? SecurityMode::NonSecureIdeal
                          : SecurityMode::DolosPartialWpq;
    auto cfg = benchConfig(mode);
    NvmDevice nvm(cfg.nvm);
    SecurityEngine eng(cfg.secure, nvm);
    SecureMemController mc(cfg, nvm, eng);
    Block b{};
    Tick t = 0;
    Addr addr = 0;
    for (auto _ : state) {
        const auto tk = mc.persistBlock(addr, b, t);
        t = tk.persistTick + 10000; // keep the WPQ unsaturated
        addr = (addr + blockSize) % (1024 * blockSize);
        benchmark::DoNotOptimize(tk);
    }
    state.SetLabel(securityModeName(mode));
}
BENCHMARK(BM_WpqInsertAndDrain)->Arg(0)->Arg(1);

void
BM_FullPersistRoundTrip(benchmark::State &state)
{
    System sys(benchConfig(SecurityMode::DolosPartialWpq));
    auto &core = sys.core();
    std::uint64_t v = 0;
    for (auto _ : state) {
        ++v;
        core.store(0x1000, &v, sizeof(v));
        core.clwb(0x1000);
        core.sfence();
    }
}
BENCHMARK(BM_FullPersistRoundTrip);

} // namespace

BENCHMARK_MAIN();
