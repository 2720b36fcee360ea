/**
 * @file
 * SipHash-2-4 (Aumasson & Bernstein), from scratch.
 *
 * The default MAC engine (MacKind::SipHash24): every data MAC, tree
 * node, Anubis shadow entry and Mi-SU entry tag goes through it.
 * SipHash is a real keyed PRF, so tamper detection is genuine; only
 * the cryptographic strength margin differs from HMAC-SHA256.
 * Simulated latency is identical (it is configured, not measured).
 */

#ifndef DOLOS_CRYPTO_SIPHASH_HH
#define DOLOS_CRYPTO_SIPHASH_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace dolos::crypto
{

/** 128-bit SipHash key. */
using SipKey = std::array<std::uint8_t, 16>;

/**
 * Compute SipHash-2-4 over @p len bytes with key @p key.
 *
 * @return 64-bit tag.
 */
std::uint64_t siphash24(const SipKey &key, const void *data,
                        std::size_t len);

} // namespace dolos::crypto

#endif // DOLOS_CRYPTO_SIPHASH_HH
