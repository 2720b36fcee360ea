/**
 * @file
 * AES-128 block cipher (FIPS-197), implemented from scratch.
 *
 * The S-box is derived at first use from the GF(2^8) multiplicative
 * inverse plus the affine transform rather than transcribed, so a
 * transcription typo cannot silently weaken it; correctness is pinned
 * by the FIPS-197 known-answer vectors in the test suite.
 *
 * Encryption runs on the host's AES-NI unit when the CPU has one
 * (x86-64, checked once at startup) and otherwise on the portable
 * T-table code, which also serves as the test oracle for the AES-NI
 * path. Both produce the same bytes; the choice only moves host time.
 * There is no decryption: counter mode only ever runs the forward
 * cipher to make pads.
 *
 * This is a functional model: simulated latency (Table 1: 40 cycles)
 * is accounted separately by the timing model.
 */

#ifndef DOLOS_CRYPTO_AES128_HH
#define DOLOS_CRYPTO_AES128_HH

#include <array>
#include <cstdint>
#include <cstring>

namespace dolos::crypto
{

/** 128-bit AES key. */
using AesKey = std::array<std::uint8_t, 16>;

/** 128-bit AES block. */
using AesBlock = std::array<std::uint8_t, 16>;

/**
 * AES-128 with a pre-expanded key schedule.
 */
class Aes128
{
  public:
    /** Expand @p key into the round-key schedule. */
    explicit Aes128(const AesKey &key);

    /**
     * Encrypt one 16-byte block (ECB primitive): AES-NI when
     * hasAesNi(), else encryptPortable().
     */
    AesBlock encryptBlock(const AesBlock &plaintext) const;

    /** Portable T-table encryption: the fallback and test oracle. */
    AesBlock encryptPortable(const AesBlock &plaintext) const;

    /** AES-NI encryption. Call only when hasAesNi() is true. */
    AesBlock encryptAesNi(const AesBlock &plaintext) const;

    /** True if this host can run encryptAesNi(). */
    static bool hasAesNi();

  private:
    static constexpr int numRounds = 10;

    /**
     * Round keys: (numRounds + 1) x 16 bytes, in FIPS-197 byte order,
     * which is also the order AES-NI loads them in.
     */
    std::array<std::uint8_t, 16 * (numRounds + 1)> roundKeys{};
};

} // namespace dolos::crypto

#endif // DOLOS_CRYPTO_AES128_HH
