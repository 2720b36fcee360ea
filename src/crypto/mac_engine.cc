/**
 * @file
 * SipHash-2-4 MAC engine.
 */

#include "crypto/mac_engine.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace dolos::crypto
{

namespace
{

MacTag
tagBytes(std::uint64_t v)
{
    MacTag t;
    for (int i = 0; i < 8; ++i)
        t[i] = std::uint8_t(v >> (8 * i));
    return t;
}

} // namespace

MacTag
MacEngine::compute(const void *data, std::size_t len) const
{
    DOLOS_PROF_SCOPE(Mac);
    return tagBytes(siphash24(key, data, len));
}

MacTag
MacEngine::computeParts(std::initializer_list<MacSegment> parts) const
{
    DOLOS_PROF_SCOPE(Mac);
    // The largest caller input is 80 bytes: address, counter and a
    // 64-byte ciphertext.
    std::uint8_t buf[256];
    std::size_t off = 0;
    for (const auto &[ptr, len] : parts) {
        DOLOS_ASSERT(len <= sizeof(buf) - off,
                     "MAC input exceeds %zu bytes", sizeof(buf));
        std::memcpy(buf + off, ptr, len);
        off += len;
    }
    return tagBytes(siphash24(key, buf, off));
}

std::unique_ptr<MacEngine>
makeMacEngine(MacKind, const std::array<std::uint8_t, 16> &key)
{
    return std::make_unique<MacEngine>(key);
}

} // namespace dolos::crypto
