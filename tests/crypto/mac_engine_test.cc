/**
 * @file
 * MAC engine tests: the SipHash-2-4 engine must behave as a keyed MAC
 * and store its tag least-significant byte first.
 */

#include <gtest/gtest.h>

#include <vector>

#include "crypto/mac_engine.hh"

namespace
{

using namespace dolos::crypto;

std::array<std::uint8_t, 16>
key(std::uint8_t seed = 0)
{
    std::array<std::uint8_t, 16> k{};
    for (int i = 0; i < 16; ++i)
        k[i] = std::uint8_t(seed + i);
    return k;
}

// The worked example of the SipHash paper (Appendix A): key 00..0f,
// message 00..0e, tag 0xa129ca6149be45e5.
TEST(MacEngine, KnownAnswerLeastSignificantByteFirst)
{
    const MacEngine eng{key()};
    std::uint8_t msg[15];
    for (int i = 0; i < 15; ++i)
        msg[i] = std::uint8_t(i);
    const MacTag expected{0xe5, 0x45, 0xbe, 0x49, 0x61, 0xca, 0x29, 0xa1};
    EXPECT_EQ(eng.compute(msg, sizeof(msg)), expected);
    EXPECT_EQ(eng.computeParts({{msg, 8}, {msg + 8, 7}}), expected);
}

TEST(MacEngine, DeterministicAndVerifies)
{
    const MacEngine eng{key()};
    const char msg[] = "persist me";
    const MacTag t1 = eng.compute(msg, sizeof(msg));
    const MacTag t2 = eng.compute(msg, sizeof(msg));
    EXPECT_EQ(t1, t2);
}

TEST(MacEngine, TamperedDataFailsVerification)
{
    const MacEngine eng{key()};
    std::vector<std::uint8_t> msg(64, 0x5A);
    const MacTag tag = eng.compute(msg.data(), msg.size());
    for (std::size_t i = 0; i < msg.size(); i += 9) {
        msg[i] ^= 0x01;
        EXPECT_NE(eng.compute(msg.data(), msg.size()), tag);
        msg[i] ^= 0x01;
    }
    EXPECT_EQ(eng.compute(msg.data(), msg.size()), tag);
}

TEST(MacEngine, TamperedTagFailsVerification)
{
    const MacEngine eng{key()};
    const char msg[] = "data";
    MacTag tag = eng.compute(msg, sizeof(msg));
    for (int bit = 0; bit < 64; bit += 11) {
        tag[bit / 8] ^= std::uint8_t(1 << (bit % 8));
        EXPECT_NE(eng.compute(msg, sizeof(msg)), tag);
        tag[bit / 8] ^= std::uint8_t(1 << (bit % 8));
    }
}

TEST(MacEngine, KeyDependence)
{
    const MacEngine e1{key(0)}, e2{key(1)};
    const char msg[] = "same message";
    EXPECT_NE(e1.compute(msg, sizeof(msg)), e2.compute(msg, sizeof(msg)));
}

TEST(MacEngine, ComputePartsMatchesConcatenation)
{
    const MacEngine eng{key()};
    const std::uint64_t addr = 0x1000;
    const std::uint64_t ctr = 7;
    std::vector<std::uint8_t> data(64, 0xC3);

    std::vector<std::uint8_t> concat;
    auto append = [&concat](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        concat.insert(concat.end(), b, b + n);
    };
    append(&addr, sizeof(addr));
    append(&ctr, sizeof(ctr));
    append(data.data(), data.size());

    const MacTag parts = eng.computeParts(
        {{&addr, sizeof(addr)}, {&ctr, sizeof(ctr)},
         {data.data(), data.size()}});
    EXPECT_EQ(parts, eng.compute(concat.data(), concat.size()));
}

TEST(MacEngine, SegmentBoundariesMatter)
{
    // MAC(a || b) with different splits is the same bytes, but
    // different *contents* must differ: swap two fields.
    const MacEngine eng{key()};
    const std::uint64_t a = 1, b = 2;
    const MacTag ab = eng.computeParts({{&a, 8}, {&b, 8}});
    const MacTag ba = eng.computeParts({{&b, 8}, {&a, 8}});
    EXPECT_NE(ab, ba);
}

} // namespace
