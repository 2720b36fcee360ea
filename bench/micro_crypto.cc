/**
 * @file
 * google-benchmark microbenchmarks for the crypto substrate (host
 * throughput of the functional engines; simulated latency is a
 * timing-model parameter, not measured here).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/ctr_pad.hh"
#include "crypto/mac_engine.hh"
#include "crypto/siphash.hh"

using namespace dolos::crypto;

namespace
{

void
BM_AesEncryptBlock(benchmark::State &state)
{
    AesKey key{};
    for (int i = 0; i < 16; ++i)
        key[i] = std::uint8_t(i);
    Aes128 aes(key);
    AesBlock block{};
    for (auto _ : state) {
        block = aes.encryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void
BM_CtrPad64B(benchmark::State &state)
{
    CtrPadGenerator gen(AesKey{{1, 2, 3}});
    std::uint64_t ctr = 0;
    std::array<std::uint8_t, 64> pad;
    for (auto _ : state) {
        gen.generate({1, 2, ++ctr}, pad);
        benchmark::DoNotOptimize(pad.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_CtrPad64B);

void
BM_MacEngine(benchmark::State &state)
{
    const MacEngine eng{{1, 2, 3, 4}};
    std::vector<std::uint8_t> block(64, 0x5A);
    for (auto _ : state) {
        auto tag = eng.compute(block.data(), block.size());
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_MacEngine);

void
BM_SipHash64B(benchmark::State &state)
{
    const SipKey key{1, 2, 3, 4};
    std::array<std::uint8_t, 64> block;
    block.fill(0x5A);
    for (auto _ : state) {
        auto v = siphash24(key, block.data(), block.size());
        benchmark::DoNotOptimize(v);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_SipHash64B);

// One Merkle inner node: a level byte plus eight child tags, MACed
// as the tree does on every secure write.
void
BM_MacComputeParts(benchmark::State &state)
{
    const MacEngine eng{{1, 2, 3, 4}};
    std::array<MacTag, 8> children{};
    std::uint8_t level = 1;
    for (auto _ : state) {
        auto tag = eng.computeParts(
            {{&level, 1}, {children.data(), sizeof(children)}});
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 65);
}
BENCHMARK(BM_MacComputeParts);

} // namespace

BENCHMARK_MAIN();
