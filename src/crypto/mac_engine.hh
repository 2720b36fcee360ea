/**
 * @file
 * Pluggable MAC engine used by both security units.
 *
 * The paper's secure units compute 8-byte MACs over (ciphertext,
 * counter, address) tuples. The engine is pluggable: SipHash-2-4 is
 * the default (SecureParams::macKind); HMAC-SHA256 truncated to 64
 * bits is the stronger, slower alternative with the same functional
 * tamper-detection behaviour. Simulated MAC latency (Table 1: 160
 * cycles) is a property of the timing model, not the engine.
 */

#ifndef DOLOS_CRYPTO_MAC_ENGINE_HH
#define DOLOS_CRYPTO_MAC_ENGINE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

namespace dolos::crypto
{

/** 64-bit MAC tag (the paper's 8-byte MAC). */
using MacTag = std::array<std::uint8_t, 8>;

/** One segment of a multi-part MAC input. */
using MacSegment = std::pair<const void *, std::size_t>;

/**
 * Abstract keyed-MAC engine.
 */
class MacEngine
{
  public:
    virtual ~MacEngine() = default;

    /** Compute a tag over a single contiguous buffer. */
    MacTag compute(const void *data, std::size_t len) const;

    /**
     * Compute a tag over the concatenation of several segments
     * (address, counter, ciphertext, ...), without the caller having
     * to materialize the concatenation.
     */
    MacTag computeParts(std::initializer_list<MacSegment> parts) const;

    /** Constant-time verification of @p tag over @p data. */
    bool verify(const void *data, std::size_t len,
                const MacTag &tag) const;

  protected:
    /**
     * The engine's keyed function. compute() and computeParts() wrap
     * it in exactly one profiler scope, so each MAC counts once.
     */
    virtual MacTag tagOf(const void *data, std::size_t len) const = 0;
};

/** Which concrete MAC engine to instantiate. */
enum class MacKind
{
    HmacSha256Truncated, ///< strongest, slowest
    SipHash24,           ///< default: fast, still a real keyed PRF
};

/**
 * Create a MAC engine with the given key material.
 *
 * @param kind Engine selection.
 * @param key Key bytes (16 bytes are used; longer keys are hashed
 *            down by the HMAC engine per RFC 2104).
 */
std::unique_ptr<MacEngine> makeMacEngine(
    MacKind kind, const std::array<std::uint8_t, 16> &key);

} // namespace dolos::crypto

#endif // DOLOS_CRYPTO_MAC_ENGINE_HH
