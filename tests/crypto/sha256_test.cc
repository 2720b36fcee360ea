/**
 * @file
 * SHA-256 and HMAC-SHA256 known-answer and property tests.
 */

#include <gtest/gtest.h>

#include <string>

#include "crypto/hmac.hh"
#include "crypto/sha256.hh"

namespace
{

using dolos::crypto::HmacSha256;
using dolos::crypto::Sha256;

std::string
hashHex(const std::string &msg)
{
    return Sha256::toHex(Sha256::digest(msg.data(), msg.size()));
}

// FIPS-180-4 known-answer tests.
TEST(Sha256, EmptyString)
{
    EXPECT_EQ(hashHex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(hashHex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(hashHex("abcdbcdecdefdefgefghfghighijhijk"
                      "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk.data(), chunk.size());
    EXPECT_EQ(Sha256::toHex(h.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const std::string msg = "the quick brown fox jumps over the lazy dog";
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 h;
        h.update(msg.data(), split);
        h.update(msg.data() + split, msg.size() - split);
        EXPECT_EQ(h.finalize(), Sha256::digest(msg.data(), msg.size()));
    }
}

TEST(Sha256, PaddingBoundaries)
{
    // Lengths around the 55/56/64-byte padding boundaries must all
    // produce distinct digests and not crash.
    std::set<std::string> seen;
    for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
        const std::string msg(len, 'x');
        seen.insert(hashHex(msg));
    }
    EXPECT_EQ(seen.size(), 9u);
}

TEST(Sha256, ResetAllowsReuse)
{
    Sha256 h;
    h.update("abc", 3);
    (void)h.finalize();
    h.reset();
    h.update("abc", 3);
    EXPECT_EQ(Sha256::toHex(h.finalize()),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

std::string
hmacHex(const std::string &key, const std::string &msg)
{
    const HmacSha256 h(key.data(), key.size());
    return Sha256::toHex(h.compute(msg.data(), msg.size()));
}

// RFC 4231 test cases 1, 2 and 7 (7: key and data both longer than
// one block).
TEST(HmacSha256, Rfc4231KnownAnswer)
{
    EXPECT_EQ(hmacHex(std::string(20, '\x0b'), "Hi There"),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
    EXPECT_EQ(hmacHex("Jefe", "what do ya want for nothing?"),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
    EXPECT_EQ(hmacHex(std::string(131, '\xaa'),
                      "This is a test using a larger than block-size "
                      "key and a larger than block-size data. The key "
                      "needs to be hashed before being used by the "
                      "HMAC algorithm."),
              "9b09ffa71b942fcb27635fbcd5b0e944"
              "bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256, RepeatedComputeIsStable)
{
    const HmacSha256 h("Jefe", 4);
    const std::string msg(200, 'm');
    EXPECT_EQ(h.compute(msg.data(), msg.size()),
              h.compute(msg.data(), msg.size()));
}

} // namespace
