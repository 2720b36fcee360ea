/**
 * @file
 * Anubis shadow-table implementation.
 */

#include "secure/anubis.hh"

namespace dolos
{

namespace
{
/** Marker distinguishing a written slot from untouched NVM. */
constexpr std::uint64_t slotValidMarker = 0x414E554249535631ULL; // "ANUBISV1"
} // namespace

AnubisShadow::AnubisShadow(std::size_t num_slots, NvmDevice &nvm,
                           const crypto::MacEngine &mac)
    : slots(num_slots), nvm(nvm), mac(mac), stats_("anubis")
{
    stats_.addScalar(&statWrites, "shadowWrites",
                     "shadow entries persisted");
}

crypto::MacTag
AnubisShadow::entryMac(Addr page_idx, const Block &packed,
                       std::uint64_t seq) const
{
    return mac.computeParts({{&page_idx, sizeof(page_idx)},
                             {&seq, sizeof(seq)},
                             {packed.data(), packed.size()}});
}

Tick
AnubisShadow::recordUpdate(std::size_t slot, Addr page_idx,
                           const Block &packed, std::uint64_t seq,
                           Tick now)
{
    DOLOS_ASSERT(slot < slots, "shadow slot %zu out of range", slot);
    ++statWrites;

    const crypto::MacTag tag = entryMac(page_idx, packed, seq);

    Block meta{};
    storeWord(meta, 0, slotValidMarker);
    storeWord(meta, 8, page_idx);
    storeWord(meta, 16, seq);
    std::memcpy(meta.data() + 24, tag.data(), tag.size());

    const Addr addr = AddressMap::shadowSlotAddr(Addr(slot) * 2);
    nvm.write(addr, packed, now);
    return nvm.write(addr + blockSize, meta, now);
}

ShadowScan
AnubisShadow::scan()
{
    ShadowScan result;
    Addr addr = 0;
    // One read of a slot; a MAC mismatch on a clean read is tamper.
    const std::function<MediaAttempt(Tick)> attempt = [&](Tick) {
        const Block meta = nvm.readFunctionalChecked(addr + blockSize);
        bool media = nvm.lastReadMediaError();
        // An unmarked slot was never written, unless a transient flip
        // hit the marker.
        if (loadWord(meta, 0) != slotValidMarker)
            return MediaAttempt{media, !media, 0};
        const Block packed = nvm.readFunctionalChecked(addr);
        media |= nvm.lastReadMediaError();
        ShadowEntry e;
        e.pageIdx = loadWord(meta, 8);
        e.seq = loadWord(meta, 16);
        crypto::MacTag stored;
        std::memcpy(stored.data(), meta.data() + 24, stored.size());
        if (entryMac(e.pageIdx, packed, e.seq) != stored)
            return MediaAttempt{media, false, 0};
        e.page = CounterPage::unpack(packed);
        result.entries.push_back(e);
        return MediaAttempt{media, true, 0};
    };
    for (std::size_t slot = 0; slot < slots; ++slot) {
        addr = AddressMap::shadowSlotAddr(Addr(slot) * 2);
        const MediaRetry m = nvm.retry(attempt(0), attempt);
        if (m.failed && m.flagged)
            ++result.mediaSkippedSlots; // worn slot: skip, never alarm
        else if (m.failed)
            result.tamperDetected = true;
    }
    return result;
}

persist::StateManifest
AnubisShadow::stateManifest() const
{
    persist::StateManifest m("AnubisShadow");
    DOLOS_MF_CONST(m, slots);
    DOLOS_MF_CONST(m, nvm);
    DOLOS_MF_CONST(m, mac);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statWrites);
    return m;
}

} // namespace dolos
