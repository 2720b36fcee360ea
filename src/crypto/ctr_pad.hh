/**
 * @file
 * Counter-mode (AES-CTR) encryption-pad generation.
 *
 * Implements the paper's Figure 2 initialization vector:
 * | Page ID | Page Offset | Counter | Padding |. A pad of arbitrary
 * length is produced by encrypting successive IVs whose padding field
 * carries the 16-byte sub-block index, then XOR'ing the pad with
 * plaintext/ciphertext. Pads for the WPQ's Mi-SU are pre-generated at
 * boot from the persistent counter register; pads for the Ma-SU use
 * the per-block split counters.
 */

#ifndef DOLOS_CRYPTO_CTR_PAD_HH
#define DOLOS_CRYPTO_CTR_PAD_HH

#include <cstdint>
#include <span>

#include "crypto/aes128.hh"

namespace dolos::crypto
{

/**
 * Fields of a counter-mode IV (paper Figure 2).
 */
struct IvFields
{
    std::uint64_t pageId = 0;     ///< 4KB page number of the block
    std::uint32_t pageOffset = 0; ///< block index within the page
    std::uint64_t counter = 0;    ///< per-block encryption counter
};

/**
 * Counter-mode pad generator bound to one AES key.
 */
class CtrPadGenerator
{
  public:
    explicit CtrPadGenerator(const AesKey &key) : aes(key) {}

    /**
     * Fill @p out with pad generated from the IV fields (Ma-SU pads
     * are 64 bytes, Mi-SU pads 80).
     *
     * Successive 16-byte sub-blocks use the block index in the IV's
     * padding field, so any length up to 2^16 * 16 bytes is spatially
     * unique.
     */
    void generate(const IvFields &iv, std::span<std::uint8_t> out) const;

  private:
    Aes128 aes;
};

/** XOR @p len bytes of @p pad into @p data in place. */
void xorInto(std::uint8_t *data, const std::uint8_t *pad,
             std::size_t len);

} // namespace dolos::crypto

#endif // DOLOS_CRYPTO_CTR_PAD_HH
