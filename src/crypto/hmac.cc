/**
 * @file
 * HMAC-SHA256 implementation.
 */

#include "crypto/hmac.hh"

#include <cstring>

namespace dolos::crypto
{

HmacSha256::HmacSha256(const void *key, std::size_t key_len)
{
    std::array<std::uint8_t, 64> k{};
    if (key_len > 64) {
        const auto d = Sha256::digest(key, key_len);
        std::memcpy(k.data(), d.data(), d.size());
    } else {
        std::memcpy(k.data(), key, key_len);
    }
    std::array<std::uint8_t, 64> ipad, opad;
    for (int i = 0; i < 64; ++i) {
        ipad[i] = std::uint8_t(k[i] ^ 0x36);
        opad[i] = std::uint8_t(k[i] ^ 0x5C);
    }
    // The padded key fills exactly one block, so each tag starts from
    // these states and skips two of its compressions.
    inner.update(ipad.data(), ipad.size());
    outer.update(opad.data(), opad.size());
}

Sha256Digest
HmacSha256::compute(const void *data, std::size_t len) const
{
    Sha256 in = inner;
    in.update(data, len);
    const auto inner_digest = in.finalize();

    Sha256 out = outer;
    out.update(inner_digest.data(), inner_digest.size());
    return out.finalize();
}

bool
constantTimeEqual(const void *a, const void *b, std::size_t len)
{
    const auto *pa = static_cast<const std::uint8_t *>(a);
    const auto *pb = static_cast<const std::uint8_t *>(b);
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < len; ++i)
        acc |= std::uint8_t(pa[i] ^ pb[i]);
    return acc == 0;
}

} // namespace dolos::crypto
