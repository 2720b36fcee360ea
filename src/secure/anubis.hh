/**
 * @file
 * Anubis-style shadow table for crash-consistent security metadata.
 *
 * Anubis (Zubair & Awad, ISCA'19) persists, for every metadata-cache
 * update, a shadow entry in NVM recording which cached metadata block
 * changed and its new content. On a crash, scanning the (small)
 * shadow region restores the dirty metadata that was lost with the
 * volatile metadata cache; the eagerly-persisted on-chip root then
 * authenticates the result.
 *
 * Our shadow table mirrors the counter cache geometry: slot i shadows
 * cache slot i. Each entry occupies two NVM blocks:
 *   block 0: the packed counter page (64B)
 *   block 1: page index, sequence number, MAC, validity marker
 */

#ifndef DOLOS_SECURE_ANUBIS_HH
#define DOLOS_SECURE_ANUBIS_HH

#include <vector>

#include "crypto/mac_engine.hh"
#include "mem/nvm_device.hh"
#include "secure/address_map.hh"
#include "secure/counters.hh"
#include "sim/persist_annotations.hh"
#include "sim/stats.hh"

namespace dolos
{

/** One recovered shadow entry. */
struct ShadowEntry
{
    Addr pageIdx = 0;
    CounterPage page;
    std::uint64_t seq = 0;
};

/** Result of a recovery scan. */
struct ShadowScan
{
    std::vector<ShadowEntry> entries;
    bool tamperDetected = false; ///< a clean-read slot failed its MAC

    /**
     * Slots the device flagged as media-faulted through every retry.
     * Wear is not tamper: the slot is skipped (its counter image may
     * be stale, which the engine's root check + MAC-pinned repair
     * sweep then handles), not alarmed on.
     */
    std::size_t mediaSkippedSlots = 0;
};

/**
 * The shadow table manager.
 */
class AnubisShadow
{
  public:
    /**
     * @param num_slots One per metadata-cache slot.
     * @param nvm Shadow entries are posted here.
     * @param mac Engine for entry MACs (not owned).
     */
    AnubisShadow(std::size_t num_slots, NvmDevice &nvm,
                 const crypto::MacEngine &mac);

    /**
     * Persist a shadow entry for cache slot @p slot after a counter
     * update (posted NVM writes). @p packed is the updated page as
     * CounterPage::pack() lays it out.
     *
     * @return tick at which the shadow write commits.
     */
    Tick recordUpdate(std::size_t slot, Addr page_idx, const Block &packed,
                      std::uint64_t seq, Tick now);

    /**
     * Scan all slots at recovery, verifying entry MACs. Reads pass
     * through the device's media-fault model; a media-flagged slot
     * is retried under the device's media-retry policy, then skipped.
     */
    ShadowScan scan();

    std::size_t numSlots() const { return slots; }
    std::uint64_t writes() const { return statWrites.value(); }
    stats::StatGroup &statGroup() { return stats_; }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

  private:
    crypto::MacTag entryMac(Addr page_idx, const Block &packed,
                            std::uint64_t seq) const;

    std::size_t slots;
    NvmDevice &nvm;
    const crypto::MacEngine &mac;

    stats::StatGroup stats_;
    stats::Scalar statWrites;
};

} // namespace dolos

#endif // DOLOS_SECURE_ANUBIS_HH
