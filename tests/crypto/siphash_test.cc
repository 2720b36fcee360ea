/**
 * @file
 * SipHash-2-4 tests: reference vectors plus PRF-behaviour properties.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "crypto/siphash.hh"

namespace
{

using dolos::crypto::siphash24;
using dolos::crypto::SipKey;

SipKey
referenceKey()
{
    SipKey k;
    for (int i = 0; i < 16; ++i)
        k[i] = std::uint8_t(i);
    return k;
}

// First entries of the reference test-vector table from the SipHash
// paper (key 000102...0f, message 00 01 02 ... of increasing length).
TEST(SipHash, ReferenceVectors)
{
    const std::uint64_t expected[] = {
        0x726fdb47dd0e0e31ULL, // len 0
        0x74f839c593dc67fdULL, // len 1
        0x0d6c8009d9a94f5aULL, // len 2
        0x85676696d7fb7e2dULL, // len 3
        0xcf2794e0277187b7ULL, // len 4
        0x18765564cd99a68dULL, // len 5
        0xcbc9466e58fee3ceULL, // len 6
        0xab0200f58b01d137ULL, // len 7
        0x93f5f5799a932462ULL, // len 8
    };
    const SipKey key = referenceKey();
    std::vector<std::uint8_t> msg;
    for (std::size_t len = 0; len < std::size(expected); ++len) {
        EXPECT_EQ(siphash24(key, msg.data(), msg.size()), expected[len])
            << "length " << len;
        msg.push_back(std::uint8_t(len));
    }
}

/**
 * SipHash-2-4 straight from the paper's description, one message
 * byte at a time: an oracle independent of the word loads under test.
 */
std::uint64_t
bytewiseSipHash(const SipKey &key, const std::uint8_t *msg, std::size_t len)
{
    const auto le64 = [](const std::uint8_t *p, std::size_t n) {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < n; ++i)
            v |= std::uint64_t(p[i]) << (8 * i);
        return v;
    };
    const auto rotl = [](std::uint64_t x, int b) {
        return (x << b) | (x >> (64 - b));
    };
    const std::uint64_t k0 = le64(key.data(), 8), k1 = le64(key.data() + 8, 8);
    std::uint64_t v[4] = {k0 ^ 0x736f6d6570736575ULL,
                          k1 ^ 0x646f72616e646f6dULL,
                          k0 ^ 0x6c7967656e657261ULL,
                          k1 ^ 0x7465646279746573ULL};
    const auto round = [&] {
        v[0] += v[1];
        v[1] = rotl(v[1], 13) ^ v[0];
        v[0] = rotl(v[0], 32);
        v[2] += v[3];
        v[3] = rotl(v[3], 16) ^ v[2];
        v[0] += v[3];
        v[3] = rotl(v[3], 21) ^ v[0];
        v[2] += v[1];
        v[1] = rotl(v[1], 17) ^ v[2];
        v[2] = rotl(v[2], 32);
    };
    const auto absorb = [&](std::uint64_t m) {
        v[3] ^= m;
        round();
        round();
        v[0] ^= m;
    };
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8)
        absorb(le64(msg + i, 8));
    absorb(le64(msg + i, len - i) | (std::uint64_t(len & 0xFF) << 56));
    v[2] ^= 0xFF;
    for (int r = 0; r < 4; ++r)
        round();
    return v[0] ^ v[1] ^ v[2] ^ v[3];
}

TEST(SipHash, UnalignedInputMatchesAlignedReference)
{
    // Every length 0..80 at every misalignment 1..7 hashes exactly as
    // the aligned copy, and the aligned copy matches the bytewise
    // oracle. Each misaligned copy ends its heap buffer, so a word
    // load past the message trips the sanitizer lane.
    const SipKey key = referenceKey();
    alignas(8) std::uint8_t aligned[80];
    for (std::size_t i = 0; i < sizeof(aligned); ++i)
        aligned[i] = std::uint8_t(i * 37 + 11);
    for (std::size_t len = 0; len <= sizeof(aligned); ++len) {
        const std::uint64_t ref = siphash24(key, aligned, len);
        ASSERT_EQ(ref, bytewiseSipHash(key, aligned, len))
            << "length " << len;
        for (std::size_t off = 1; off < 8; ++off) {
            std::vector<std::uint8_t> shifted(off + len);
            std::memcpy(shifted.data() + off, aligned, len);
            EXPECT_EQ(siphash24(key, shifted.data() + off, len), ref)
                << "length " << len << " offset " << off;
        }
    }
}

TEST(SipHash, Deterministic)
{
    const SipKey key = referenceKey();
    const char msg[] = "hello world";
    EXPECT_EQ(siphash24(key, msg, sizeof(msg)),
              siphash24(key, msg, sizeof(msg)));
}

TEST(SipHash, KeyDependence)
{
    SipKey k1 = referenceKey();
    SipKey k2 = k1;
    k2[15] ^= 0x80;
    const char msg[] = "payload";
    EXPECT_NE(siphash24(k1, msg, sizeof(msg)),
              siphash24(k2, msg, sizeof(msg)));
}

TEST(SipHash, MessageBitFlipChangesTag)
{
    const SipKey key = referenceKey();
    std::vector<std::uint8_t> msg(64, 0xAA);
    const std::uint64_t base = siphash24(key, msg.data(), msg.size());
    for (std::size_t byte = 0; byte < msg.size(); byte += 7) {
        msg[byte] ^= 1;
        EXPECT_NE(siphash24(key, msg.data(), msg.size()), base);
        msg[byte] ^= 1;
    }
}

TEST(SipHash, LengthExtensionDistinct)
{
    // Messages that are prefixes of each other must hash differently
    // (the length is folded into the final block).
    const SipKey key = referenceKey();
    std::vector<std::uint8_t> msg(32, 0);
    std::set<std::uint64_t> tags;
    for (std::size_t len = 0; len <= msg.size(); ++len)
        tags.insert(siphash24(key, msg.data(), len));
    EXPECT_EQ(tags.size(), msg.size() + 1);
}

} // namespace
