/**
 * @file
 * SHA-256 implementation.
 */

#include "crypto/sha256.hh"

#include <cstring>

#include "sim/profiler.hh"
namespace dolos::crypto
{

namespace
{

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;

/** Integer floor square root of a 128-bit value (binary search). */
u64
isqrt128(u128 v)
{
    // Inputs are p * 2^64 with p < 2^16, so the root is < 2^40;
    // bounding hi keeps (hi - lo + 1) from overflowing.
    u64 lo = 0, hi = 1ULL << 40;
    while (lo < hi) {
        const u64 mid = lo + (hi - lo + 1) / 2;
        if (u128(mid) * mid <= v)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

/** Integer floor cube root of a 128-bit value (binary search). */
u64
icbrt128(u128 v)
{
    u64 lo = 0, hi = 0x3FFFFFFFFFFULL; // cbrt(2^128) < 2^43
    while (lo < hi) {
        const u64 mid = lo + (hi - lo + 1) / 2;
        if (u128(mid) * mid * mid <= v)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

struct Constants
{
    std::array<u32, 8> h0{};
    std::array<u32, 64> k{};

    Constants()
    {
        // First 64 primes.
        int primes[64];
        int count = 0;
        for (int n = 2; count < 64; ++n) {
            bool prime = true;
            for (int d = 2; d * d <= n; ++d) {
                if (n % d == 0) {
                    prime = false;
                    break;
                }
            }
            if (prime)
                primes[count++] = n;
        }
        // H0[i] = frac(sqrt(p_i)) * 2^32 = floor(sqrt(p * 2^64)) mod 2^32.
        for (int i = 0; i < 8; ++i)
            h0[i] = u32(isqrt128(u128(primes[i]) << 64));
        // K[i] = frac(cbrt(p_i)) * 2^32 = floor(cbrt(p * 2^96)) mod 2^32.
        for (int i = 0; i < 64; ++i)
            k[i] = u32(icbrt128(u128(primes[i]) << 96));
    }
};

const Constants &
consts()
{
    static const Constants c;
    return c;
}

u32
rotr(u32 x, int n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

void
Sha256::reset()
{
    state = consts().h0;
    bitLength = 0;
    bufferLen = 0;
}

void
Sha256::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    bitLength += u64(len) * 8;
    while (len > 0) {
        if (bufferLen == 0 && len >= buffer.size()) {
            processBlock(p);
            p += buffer.size();
            len -= buffer.size();
            continue;
        }
        const std::size_t take = std::min(len, buffer.size() - bufferLen);
        std::memcpy(buffer.data() + bufferLen, p, take);
        bufferLen += take;
        p += take;
        len -= take;
        if (bufferLen == buffer.size()) {
            processBlock(buffer.data());
            bufferLen = 0;
        }
    }
}

Sha256Digest
Sha256::finalize()
{
    buffer[bufferLen++] = 0x80;
    if (bufferLen > 56) {
        std::memset(buffer.data() + bufferLen, 0, 64 - bufferLen);
        processBlock(buffer.data());
        bufferLen = 0;
    }
    std::memset(buffer.data() + bufferLen, 0, 56 - bufferLen);
    for (int i = 0; i < 8; ++i)
        buffer[56 + i] = std::uint8_t(bitLength >> (56 - 8 * i));
    processBlock(buffer.data());
    bufferLen = 0;

    Sha256Digest out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i + 0] = std::uint8_t(state[i] >> 24);
        out[4 * i + 1] = std::uint8_t(state[i] >> 16);
        out[4 * i + 2] = std::uint8_t(state[i] >> 8);
        out[4 * i + 3] = std::uint8_t(state[i]);
    }
    return out;
}

void
Sha256::processBlock(const std::uint8_t *block)
{
    DOLOS_PROF_SCOPE(Sha);
    const auto &K = consts().k;
    u32 w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (u32(block[4 * i]) << 24) | (u32(block[4 * i + 1]) << 16) |
               (u32(block[4 * i + 2]) << 8) | u32(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const u32 s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                       (w[i - 15] >> 3);
        const u32 s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                       (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    u32 a = state[0], b = state[1], c = state[2], d = state[3];
    u32 e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
        const u32 S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const u32 ch = (e & f) ^ (~e & g);
        const u32 temp1 = h + S1 + ch + K[i] + w[i];
        const u32 S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const u32 maj = (a & b) ^ (a & c) ^ (b & c);
        const u32 temp2 = S0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

std::string
Sha256::toHex(const Sha256Digest &d)
{
    static const char *hex = "0123456789abcdef";
    std::string s;
    s.reserve(64);
    for (auto b : d) {
        s.push_back(hex[b >> 4]);
        s.push_back(hex[b & 0xF]);
    }
    return s;
}

} // namespace dolos::crypto
