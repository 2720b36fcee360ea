/**
 * @file
 * SipHash-2-4 implementation.
 */

#include "crypto/siphash.hh"

#include <bit>
#include <cstring>

namespace dolos::crypto
{

namespace
{

using u64 = std::uint64_t;

u64
rotl(u64 x, int b)
{
    return (x << b) | (x >> (64 - b));
}

/** Little-endian load of one (possibly unaligned) message word. */
u64
loadLe64(const std::uint8_t *p)
{
    if constexpr (std::endian::native == std::endian::little) {
        u64 v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    } else {
        u64 v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | p[i];
        return v;
    }
}

// Forced inline: as an out-of-line call the four state words go
// through memory on every one of a MAC's dozens of rounds.
[[gnu::always_inline]] inline void
sipround(u64 &v0, u64 &v1, u64 &v2, u64 &v3)
{
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
}

} // namespace

std::uint64_t
siphash24(const SipKey &key, const void *data, std::size_t len)
{
    const u64 k0 = loadLe64(key.data());
    const u64 k1 = loadLe64(key.data() + 8);

    u64 v0 = k0 ^ 0x736f6d6570736575ULL;
    u64 v1 = k1 ^ 0x646f72616e646f6dULL;
    u64 v2 = k0 ^ 0x6c7967656e657261ULL;
    u64 v3 = k1 ^ 0x7465646279746573ULL;

    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::size_t full = len & ~std::size_t(7);
    for (std::size_t i = 0; i < full; i += 8) {
        const u64 m = loadLe64(p + i);
        v3 ^= m;
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        v0 ^= m;
    }

    u64 last = u64(len & 0xFF) << 56;
    for (std::size_t i = full; i < len; ++i)
        last |= u64(p[i]) << (8 * (i - full));
    v3 ^= last;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    v0 ^= last;

    v2 ^= 0xFF;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    return v0 ^ v1 ^ v2 ^ v3;
}

} // namespace dolos::crypto
