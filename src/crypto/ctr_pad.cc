/**
 * @file
 * Counter-mode pad generation implementation.
 */

#include "crypto/ctr_pad.hh"

#include <algorithm>
#include <cstring>

#include "sim/profiler.hh"

namespace dolos::crypto
{

void
CtrPadGenerator::generate(const IvFields &iv,
                          std::span<std::uint8_t> out) const
{
    DOLOS_PROF_SCOPE(CtrPad);
    // Figure 2 layout, packed collision-free into 16 bytes:
    // 6B page id | 2B page offset | 6B counter | 2B sub-block.
    // 2^48 pages covers 2^60 bytes of physical space; 2^48 counter
    // values exceed any simulated write count.
    AesBlock in{};
    for (int i = 0; i < 6; ++i)
        in[i] = std::uint8_t(iv.pageId >> (8 * i));
    in[6] = std::uint8_t(iv.pageOffset);
    in[7] = std::uint8_t(iv.pageOffset >> 8);
    for (int i = 0; i < 6; ++i)
        in[8 + i] = std::uint8_t(iv.counter >> (8 * i));

    for (std::size_t off = 0, blk = 0; off < out.size(); off += 16, ++blk) {
        in[14] = std::uint8_t(blk);
        in[15] = std::uint8_t(blk >> 8);
        const AesBlock pad = aes.encryptBlock(in);
        std::memcpy(out.data() + off, pad.data(),
                    std::min(pad.size(), out.size() - off));
    }
}

void
xorInto(std::uint8_t *data, const std::uint8_t *pad, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        data[i] ^= pad[i];
}

} // namespace dolos::crypto
