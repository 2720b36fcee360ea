/**
 * @file
 * HMAC-SHA256 (RFC 2104), from scratch.
 */

#ifndef DOLOS_CRYPTO_HMAC_HH
#define DOLOS_CRYPTO_HMAC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/sha256.hh"

namespace dolos::crypto
{

/**
 * HMAC-SHA256 with a fixed key.
 */
class HmacSha256
{
  public:
    /** @param key Arbitrary-length key. */
    HmacSha256(const void *key, std::size_t key_len);

    /** Compute the full 32-byte tag over @p len bytes of @p data. */
    Sha256Digest compute(const void *data, std::size_t len) const;

  private:
    /** Hasher states after absorbing the key XOR ipad / opad block. */
    Sha256 inner;
    Sha256 outer;
};

/**
 * Constant-time comparison of two equal-length byte strings.
 *
 * @return true if equal.
 */
bool constantTimeEqual(const void *a, const void *b, std::size_t len);

} // namespace dolos::crypto

#endif // DOLOS_CRYPTO_HMAC_HH
