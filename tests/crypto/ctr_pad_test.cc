/**
 * @file
 * Counter-mode pad generator tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "crypto/ctr_pad.hh"

namespace
{

using namespace dolos::crypto;

AesKey
testKey()
{
    AesKey k{};
    for (int i = 0; i < 16; ++i)
        k[i] = std::uint8_t(0xA0 + i);
    return k;
}

/** Generate a @p len-byte pad into a fresh vector. */
std::vector<std::uint8_t>
padOf(const CtrPadGenerator &gen, const IvFields &iv, std::size_t len)
{
    std::vector<std::uint8_t> pad(len);
    gen.generate(iv, pad);
    return pad;
}

TEST(CtrPad, PadLengthHonored)
{
    // generate() fills exactly the caller's buffer: bytes past it are
    // untouched, and each length is a prefix of the longest pad.
    CtrPadGenerator gen(testKey());
    const auto longest = padOf(gen, {1, 2, 3}, 128);
    for (std::size_t len : {1u, 15u, 16u, 17u, 64u, 72u, 80u, 100u}) {
        std::vector<std::uint8_t> buf(len + 16, 0xCC);
        gen.generate({1, 2, 3}, std::span(buf).first(len));
        EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + long(len),
                               longest.begin()))
            << len;
        EXPECT_TRUE(std::all_of(buf.begin() + long(len), buf.end(),
                                [](std::uint8_t b) { return b == 0xCC; }))
            << len;
    }
}

TEST(CtrPad, Deterministic)
{
    CtrPadGenerator gen(testKey());
    EXPECT_EQ(padOf(gen, {5, 6, 7}, 64), padOf(gen, {5, 6, 7}, 64));
}

TEST(CtrPad, CounterChangesPad)
{
    CtrPadGenerator gen(testKey());
    EXPECT_NE(padOf(gen, {1, 0, 1}, 64), padOf(gen, {1, 0, 2}, 64));
}

TEST(CtrPad, SpatialUniqueness)
{
    // Same counter, different page/offset => different pad
    // (spatial uniqueness of the IV).
    CtrPadGenerator gen(testKey());
    std::vector<std::vector<std::uint8_t>> pads;
    for (std::uint64_t page = 0; page < 4; ++page)
        for (std::uint32_t off = 0; off < 4; ++off)
            pads.push_back(padOf(gen, {page, off, 9}, 64));
    for (std::size_t i = 0; i < pads.size(); ++i)
        for (std::size_t j = i + 1; j < pads.size(); ++j)
            EXPECT_NE(pads[i], pads[j]) << i << " vs " << j;
}

TEST(CtrPad, KeyChangesPad)
{
    AesKey k2 = testKey();
    k2[0] ^= 0xFF;
    CtrPadGenerator g1(testKey()), g2(k2);
    EXPECT_NE(padOf(g1, {1, 1, 1}, 64), padOf(g2, {1, 1, 1}, 64));
}

TEST(CtrPad, XorRoundTrips)
{
    CtrPadGenerator gen(testKey());
    const auto pad = padOf(gen, {3, 1, 4}, 72);
    std::vector<std::uint8_t> data(72);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 7);
    const auto original = data;

    xorInto(data.data(), pad.data(), data.size());
    EXPECT_NE(data, original); // encrypted
    xorInto(data.data(), pad.data(), data.size());
    EXPECT_EQ(data, original); // decrypted
}

TEST(CtrPad, PrefixConsistency)
{
    // The first 16 bytes of a 64-byte pad equal the 16-byte pad for
    // the same IV (sub-block counter is part of the IV padding).
    CtrPadGenerator gen(testKey());
    const auto small = padOf(gen, {8, 2, 10}, 16);
    const auto large = padOf(gen, {8, 2, 10}, 64);
    EXPECT_TRUE(std::equal(small.begin(), small.end(), large.begin()));
}

} // namespace
