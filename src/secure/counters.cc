/**
 * @file
 * Split-counter packing and increment.
 */

#include "secure/counters.hh"

namespace dolos
{

Block
CounterPage::pack() const
{
    // Layout: bytes [0,8) little-endian major; bytes [8,64) hold 64
    // 7-bit minors as a dense little-endian bit stream, i.e. eight
    // groups of eight minors, each group filling exactly 7 bytes.
    Block b{};
    storeWord(b, 0, major);
    for (unsigned g = 0; g < 8; ++g) {
        std::uint64_t w = 0;
        for (unsigned j = 0; j < 8; ++j)
            w |= std::uint64_t(minors[8 * g + j] & 0x7F) << (7 * j);
        for (unsigned k = 0; k < 7; ++k)
            b[8 + 7 * g + k] = std::uint8_t(w >> (8 * k));
    }
    return b;
}

CounterPage
CounterPage::unpack(const Block &b)
{
    CounterPage p;
    p.major = loadWord(b, 0);
    for (unsigned g = 0; g < 8; ++g) {
        std::uint64_t w = 0;
        for (unsigned k = 0; k < 7; ++k)
            w |= std::uint64_t(b[8 + 7 * g + k]) << (8 * k);
        for (unsigned j = 0; j < 8; ++j)
            p.minors[8 * g + j] = std::uint8_t((w >> (7 * j)) & 0x7F);
    }
    return p;
}

CounterBump
CounterStore::increment(Addr a)
{
    CounterPage &p = pages[AddressMap::pageOf(a)];
    const unsigned idx = AddressMap::blockInPage(a);
    CounterBump r;
    if (p.minors[idx] + 1u >= minorCounterLimit) {
        // Minor overflow: bump major, reset every minor. The caller
        // must re-encrypt the whole page under the new counters.
        ++p.major;
        p.minors.fill(0);
        r.pageOverflow = true;
    } else {
        ++p.minors[idx];
    }
    r.newCounter = p.counterOf(idx);
    return r;
}

persist::StateManifest
CounterStore::stateManifest() const
{
    persist::StateManifest m("CounterStore");
    DOLOS_MF_V(m, pages);
    return m;
}

} // namespace dolos
