/**
 * @file
 * AES-128 known-answer and property tests.
 */

#include <gtest/gtest.h>

#include "crypto/aes128.hh"
#include "sim/random.hh"

namespace
{

using dolos::crypto::Aes128;
using dolos::crypto::AesBlock;
using dolos::crypto::AesKey;

AesKey
keyFromBytes(std::initializer_list<int> bytes)
{
    AesKey k{};
    int i = 0;
    for (int b : bytes)
        k[i++] = std::uint8_t(b);
    return k;
}

// FIPS-197 Appendix C.1 known-answer test.
TEST(Aes128, Fips197KnownAnswer)
{
    AesKey key{};
    AesBlock pt{};
    for (int i = 0; i < 16; ++i) {
        key[i] = std::uint8_t(i);
        pt[i] = std::uint8_t(0x11 * i);
    }
    const AesBlock expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                               0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                               0x70, 0xb4, 0xc5, 0x5a};
    Aes128 aes(key);
    EXPECT_EQ(aes.encryptBlock(pt), expected);
}

// FIPS-197 Appendix B example: key 2b7e1516..., input 3243f6a8...
TEST(Aes128, Fips197AppendixB)
{
    const AesKey key = keyFromBytes({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                     0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                     0x09, 0xcf, 0x4f, 0x3c});
    const AesBlock pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                         0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
    const AesBlock expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                               0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                               0x19, 0x6a, 0x0b, 0x32};
    Aes128 aes(key);
    EXPECT_EQ(aes.encryptBlock(pt), expected);
}

// The FIPS-197 Appendix B and C.1 vectors again, on each encryption
// path directly rather than through encryptBlock's dispatch.
struct Fips197Vector
{
    AesKey key;
    AesBlock pt;
    AesBlock ct;
};

const Fips197Vector fips197[] = {
    {{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
      0x88, 0x09, 0xcf, 0x4f, 0x3c},
     {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98,
      0xa2, 0xe0, 0x37, 0x07, 0x34},
     {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85,
      0x97, 0x19, 0x6a, 0x0b, 0x32}},
    {{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,
      0x0b, 0x0c, 0x0d, 0x0e, 0x0f},
     {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa,
      0xbb, 0xcc, 0xdd, 0xee, 0xff},
     {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7,
      0x80, 0x70, 0xb4, 0xc5, 0x5a}},
};

TEST(Aes128, PortablePathPassesFips197)
{
    for (const auto &v : fips197)
        EXPECT_EQ(Aes128(v.key).encryptPortable(v.pt), v.ct);
}

TEST(Aes128, AesNiPathPassesFips197)
{
    if (!Aes128::hasAesNi())
        GTEST_SKIP() << "host CPU has no AES-NI";
    for (const auto &v : fips197)
        EXPECT_EQ(Aes128(v.key).encryptAesNi(v.pt), v.ct);
}

TEST(Aes128, AesNiMatchesPortableOnRandomPairs)
{
    if (!Aes128::hasAesNi())
        GTEST_SKIP() << "host CPU has no AES-NI";
    dolos::Random rng(2024);
    for (int trial = 0; trial < 100000; ++trial) {
        AesKey key;
        AesBlock pt;
        for (auto &b : key)
            b = std::uint8_t(rng.next());
        for (auto &b : pt)
            b = std::uint8_t(rng.next());
        const Aes128 aes(key);
        ASSERT_EQ(aes.encryptAesNi(pt), aes.encryptPortable(pt))
            << "trial " << trial;
    }
}

TEST(Aes128, DifferentKeysProduceDifferentCiphertext)
{
    AesKey k1{}, k2{};
    k2[0] = 1;
    AesBlock pt{};
    Aes128 a1(k1), a2(k2);
    EXPECT_NE(a1.encryptBlock(pt), a2.encryptBlock(pt));
}

TEST(Aes128, SingleBitPlaintextChangeAvalanches)
{
    AesKey key{};
    AesBlock pt{};
    Aes128 aes(key);
    const AesBlock c1 = aes.encryptBlock(pt);
    pt[0] ^= 1;
    const AesBlock c2 = aes.encryptBlock(pt);
    int diff_bits = 0;
    for (int i = 0; i < 16; ++i)
        diff_bits += __builtin_popcount(c1[i] ^ c2[i]);
    // Expect roughly half of 128 bits to flip.
    EXPECT_GT(diff_bits, 40);
    EXPECT_LT(diff_bits, 90);
}

} // namespace
