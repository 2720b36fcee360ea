/**
 * @file
 * AES-128 implementation.
 */

#include "crypto/aes128.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "sim/profiler.hh"

namespace dolos::crypto
{

namespace
{

/** Multiply in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1. */
std::uint8_t
gmul(std::uint8_t a, std::uint8_t b)
{
    std::uint8_t p = 0;
    while (b) {
        if (b & 1)
            p ^= a;
        const bool hi = a & 0x80;
        a <<= 1;
        if (hi)
            a ^= 0x1B;
        b >>= 1;
    }
    return p;
}

/** xtime: multiply by x (i.e., 2) in GF(2^8). */
std::uint8_t
xtime(std::uint8_t a)
{
    return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1B : 0));
}

struct SboxTables
{
    std::array<std::uint8_t, 256> sbox{};
    /**
     * Encryption T-tables: te[r][x] is the MixColumns column that
     * S-box output sbox[x] contributes from row r, packed big-endian
     * (row 0 in the top byte). te[r] is te[0] rotated right 8r bits.
     */
    std::array<std::array<std::uint32_t, 256>, 4> te{};

    SboxTables()
    {
        // Multiplicative inverse via brute force (256x256 is trivial),
        // then the FIPS-197 affine transform.
        for (int x = 0; x < 256; ++x) {
            std::uint8_t xinv = 0;
            if (x != 0) {
                for (int y = 1; y < 256; ++y) {
                    if (gmul(std::uint8_t(x), std::uint8_t(y)) == 1) {
                        xinv = std::uint8_t(y);
                        break;
                    }
                }
            }
            std::uint8_t s = 0;
            for (int bit = 0; bit < 8; ++bit) {
                const int b = ((xinv >> bit) & 1) ^
                              ((xinv >> ((bit + 4) % 8)) & 1) ^
                              ((xinv >> ((bit + 5) % 8)) & 1) ^
                              ((xinv >> ((bit + 6) % 8)) & 1) ^
                              ((xinv >> ((bit + 7) % 8)) & 1) ^
                              ((0x63 >> bit) & 1);
                s |= std::uint8_t(b << bit);
            }
            sbox[x] = s;
        }
        for (int x = 0; x < 256; ++x) {
            const std::uint32_t s = sbox[x];
            const std::uint32_t s2 = xtime(sbox[x]);
            const std::uint32_t w = (s2 << 24) | (s << 16) | (s << 8) |
                                    (s2 ^ s);
            te[0][x] = w;
            te[1][x] = (w >> 8) | (w << 24);
            te[2][x] = (w >> 16) | (w << 16);
            te[3][x] = (w >> 24) | (w << 8);
        }
    }
};

const SboxTables &
tables()
{
    static const SboxTables t;
    return t;
}

/** Big-endian load of one state column. */
std::uint32_t
loadColumn(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

void
storeColumn(std::uint8_t *p, std::uint32_t w)
{
    p[0] = std::uint8_t(w >> 24);
    p[1] = std::uint8_t(w >> 16);
    p[2] = std::uint8_t(w >> 8);
    p[3] = std::uint8_t(w);
}

#if defined(__x86_64__)
/** Probed once, before main; false also before it is initialized. */
const bool cpuHasAes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") != 0;
}();

[[gnu::target("aes")]] AesBlock
aesNiEncrypt(const std::uint8_t *rk, int rounds, const AesBlock &plaintext)
{
    const auto key = [rk](int round) {
        return _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rk + 16 * round));
    };
    __m128i st = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(plaintext.data())),
        key(0));
    for (int round = 1; round < rounds; ++round)
        st = _mm_aesenc_si128(st, key(round));
    st = _mm_aesenclast_si128(st, key(rounds));
    AesBlock out;
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out.data()), st);
    return out;
}
#else
const bool cpuHasAes = false;
#endif

} // namespace

Aes128::Aes128(const AesKey &key)
{
    const auto &sbox = tables().sbox;
    std::memcpy(roundKeys.data(), key.data(), 16);
    std::uint8_t rcon = 1;
    for (int i = 16; i < 16 * (numRounds + 1); i += 4) {
        std::uint8_t t[4];
        std::memcpy(t, roundKeys.data() + i - 4, 4);
        if (i % 16 == 0) {
            // RotWord + SubWord + Rcon.
            const std::uint8_t t0 = t[0];
            t[0] = std::uint8_t(sbox[t[1]] ^ rcon);
            t[1] = sbox[t[2]];
            t[2] = sbox[t[3]];
            t[3] = sbox[t0];
            rcon = xtime(rcon);
        }
        for (int j = 0; j < 4; ++j)
            roundKeys[i + j] = roundKeys[i - 16 + j] ^ t[j];
    }
}

bool
Aes128::hasAesNi()
{
    return cpuHasAes;
}

AesBlock
Aes128::encryptBlock(const AesBlock &plaintext) const
{
    DOLOS_PROF_SCOPE(Aes);
    return cpuHasAes ? encryptAesNi(plaintext) : encryptPortable(plaintext);
}

AesBlock
Aes128::encryptAesNi(const AesBlock &plaintext) const
{
#if defined(__x86_64__)
    return aesNiEncrypt(roundKeys.data(), numRounds, plaintext);
#else
    return encryptPortable(plaintext);
#endif
}

AesBlock
Aes128::encryptPortable(const AesBlock &plaintext) const
{
    // One column per word: each middle round is SubBytes, ShiftRows
    // and MixColumns as four T-table lookups per column (ShiftRows
    // picks row r from column c + r), then AddRoundKey.
    const auto &t = tables();
    const auto &te = t.te;
    const std::uint8_t *in = plaintext.data();
    const std::uint8_t *rk = roundKeys.data();
    std::uint32_t s0 = loadColumn(in) ^ loadColumn(rk);
    std::uint32_t s1 = loadColumn(in + 4) ^ loadColumn(rk + 4);
    std::uint32_t s2 = loadColumn(in + 8) ^ loadColumn(rk + 8);
    std::uint32_t s3 = loadColumn(in + 12) ^ loadColumn(rk + 12);
    auto column = [&te](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d, const std::uint8_t *k) {
        return te[0][a >> 24] ^ te[1][(b >> 16) & 0xFF] ^
               te[2][(c >> 8) & 0xFF] ^ te[3][d & 0xFF] ^ loadColumn(k);
    };
    for (int round = 1; round < numRounds; ++round) {
        rk += 16;
        const std::uint32_t n0 = column(s0, s1, s2, s3, rk);
        const std::uint32_t n1 = column(s1, s2, s3, s0, rk + 4);
        const std::uint32_t n2 = column(s2, s3, s0, s1, rk + 8);
        const std::uint32_t n3 = column(s3, s0, s1, s2, rk + 12);
        s0 = n0;
        s1 = n1;
        s2 = n2;
        s3 = n3;
    }
    // Final round: no MixColumns.
    rk += 16;
    const auto &sbox = t.sbox;
    auto last = [&sbox](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d, const std::uint8_t *k) {
        return ((std::uint32_t(sbox[a >> 24]) << 24) |
                (std::uint32_t(sbox[(b >> 16) & 0xFF]) << 16) |
                (std::uint32_t(sbox[(c >> 8) & 0xFF]) << 8) |
                std::uint32_t(sbox[d & 0xFF])) ^
               loadColumn(k);
    };
    AesBlock out;
    storeColumn(out.data(), last(s0, s1, s2, s3, rk));
    storeColumn(out.data() + 4, last(s1, s2, s3, s0, rk + 4));
    storeColumn(out.data() + 8, last(s2, s3, s0, s1, rk + 8));
    storeColumn(out.data() + 12, last(s3, s0, s1, s2, rk + 12));
    return out;
}

} // namespace dolos::crypto
