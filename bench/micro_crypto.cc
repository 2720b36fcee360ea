/**
 * @file
 * google-benchmark microbenchmarks for the crypto substrate (host
 * throughput of the functional engines; simulated latency is a
 * timing-model parameter, not measured here).
 */

#include <benchmark/benchmark.h>

#include "crypto/ctr_pad.hh"
#include "crypto/hmac.hh"
#include "crypto/mac_engine.hh"
#include "crypto/sha256.hh"
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
BM_Sha256(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(std::size_t(state.range(0)), 0xAB);
    for (auto _ : state) {
        auto d = Sha256::digest(buf.data(), buf.size());
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void
BM_MacEngine(benchmark::State &state)
{
    const auto kind = state.range(0) == 0
                          ? MacKind::HmacSha256Truncated
                          : MacKind::SipHash24;
    auto eng = makeMacEngine(kind, {1, 2, 3, 4});
    std::vector<std::uint8_t> block(64, 0x5A);
    for (auto _ : state) {
        auto tag = eng->compute(block.data(), block.size());
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 64);
    state.SetLabel(state.range(0) == 0 ? "HMAC-SHA256" : "SipHash24");
}
BENCHMARK(BM_MacEngine)->Arg(0)->Arg(1);

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
// by the default (SipHash-2-4) engine as the tree does on every
// secure write.
void
BM_MacComputeParts(benchmark::State &state)
{
    auto eng = makeMacEngine(MacKind::SipHash24, {1, 2, 3, 4});
    std::array<MacTag, 8> children{};
    std::uint8_t level = 1;
    for (auto _ : state) {
        auto tag = eng->computeParts(
            {{&level, 1}, {children.data(), sizeof(children)}});
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 65);
}
BENCHMARK(BM_MacComputeParts);

} // namespace

BENCHMARK_MAIN();
