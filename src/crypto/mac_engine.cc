/**
 * @file
 * MAC engine implementations.
 */

#include "crypto/mac_engine.hh"

#include <cstring>

#include "crypto/hmac.hh"
#include "crypto/siphash.hh"
#include "sim/profiler.hh"

namespace dolos::crypto
{

MacTag
MacEngine::compute(const void *data, std::size_t len) const
{
    DOLOS_PROF_SCOPE(Mac);
    return tagOf(data, len);
}

MacTag
MacEngine::computeParts(std::initializer_list<MacSegment> parts) const
{
    DOLOS_PROF_SCOPE(Mac);
    // Total sizes here are tiny (address + counter + one cacheline),
    // so a stack buffer normally suffices.
    std::size_t total = 0;
    for (const auto &[ptr, len] : parts)
        total += len;

    std::uint8_t buf[256];
    if (total <= sizeof(buf)) {
        std::size_t off = 0;
        for (const auto &[ptr, len] : parts) {
            std::memcpy(buf + off, ptr, len);
            off += len;
        }
        return tagOf(buf, total);
    }

    std::vector<std::uint8_t> big;
    big.reserve(total);
    for (const auto &[ptr, len] : parts) {
        const auto *p = static_cast<const std::uint8_t *>(ptr);
        big.insert(big.end(), p, p + len);
    }
    return tagOf(big.data(), big.size());
}

bool
MacEngine::verify(const void *data, std::size_t len,
                  const MacTag &tag) const
{
    const MacTag expected = compute(data, len);
    return constantTimeEqual(expected.data(), tag.data(), tag.size());
}

namespace
{

/** HMAC-SHA256 truncated to the leading 8 bytes. */
class HmacMacEngine : public MacEngine
{
  public:
    explicit HmacMacEngine(const std::array<std::uint8_t, 16> &key)
        : hmac(key.data(), key.size())
    {}

  protected:
    MacTag
    tagOf(const void *data, std::size_t len) const override
    {
        const auto d = hmac.compute(data, len);
        MacTag t;
        std::memcpy(t.data(), d.data(), t.size());
        return t;
    }

  private:
    HmacSha256 hmac;
};

/** SipHash-2-4 engine. */
class SipMacEngine : public MacEngine
{
  public:
    explicit SipMacEngine(const std::array<std::uint8_t, 16> &key)
        : key(key)
    {}

  protected:
    MacTag
    tagOf(const void *data, std::size_t len) const override
    {
        const std::uint64_t v = siphash24(key, data, len);
        MacTag t;
        for (int i = 0; i < 8; ++i)
            t[i] = std::uint8_t(v >> (8 * i));
        return t;
    }

  private:
    SipKey key;
};

} // namespace

std::unique_ptr<MacEngine>
makeMacEngine(MacKind kind, const std::array<std::uint8_t, 16> &key)
{
    switch (kind) {
      case MacKind::HmacSha256Truncated:
        return std::make_unique<HmacMacEngine>(key);
      case MacKind::SipHash24:
        return std::make_unique<SipMacEngine>(key);
    }
    return nullptr;
}

} // namespace dolos::crypto
