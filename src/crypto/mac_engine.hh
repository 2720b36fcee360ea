/**
 * @file
 * The MAC engine used by both security units: SipHash-2-4.
 *
 * The paper's secure units compute 8-byte MACs over (ciphertext,
 * counter, address) tuples. Every data MAC, tree node, Anubis shadow
 * entry and Mi-SU entry tag is a keyed SipHash-2-4 tag, stored least-
 * significant byte first. Simulated MAC latency (Table 1: 160 cycles)
 * is a property of the timing model, not of the engine.
 */

#ifndef DOLOS_CRYPTO_MAC_ENGINE_HH
#define DOLOS_CRYPTO_MAC_ENGINE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>

#include "crypto/siphash.hh"

namespace dolos::crypto
{

/** 64-bit MAC tag (the paper's 8-byte MAC). */
using MacTag = std::array<std::uint8_t, 8>;

/** One segment of a multi-part MAC input. */
using MacSegment = std::pair<const void *, std::size_t>;

/** Keyed SipHash-2-4 MAC engine. */
class MacEngine
{
  public:
    explicit MacEngine(const std::array<std::uint8_t, 16> &key) : key(key) {}

    /** Compute a tag over a single contiguous buffer. */
    MacTag compute(const void *data, std::size_t len) const;

    /**
     * Compute a tag over the concatenation of several segments
     * (address, counter, ciphertext, ...), without the caller having
     * to materialize the concatenation. The segments total at most
     * 256 bytes.
     */
    MacTag computeParts(std::initializer_list<MacSegment> parts) const;

  private:
    SipKey key;
};

// The benchmark program (perfbench/) builds an engine through this
// factory from SecureParams::macKind; MacKind, makeMacEngine and that
// constant exist only for it.
enum class MacKind
{
    SipHash24,
};

std::unique_ptr<MacEngine> makeMacEngine(
    MacKind kind, const std::array<std::uint8_t, 16> &key);

} // namespace dolos::crypto

#endif // DOLOS_CRYPTO_MAC_ENGINE_HH
