/**
 * @file
 * Mi-SU: the Minor Security Unit protecting the WPQ (paper §4.3).
 *
 * Pads are pre-generated at boot with AES-CTR from an on-chip
 * *persistent counter register* (PCR): slot i's pad uses counter
 * PCR + i. A pad is reused while the machine runs (the WPQ never
 * leaves the chip) and becomes visible to an adversary at most once —
 * at a crash dump — after which the PCR advances by the WPQ capacity
 * and all pads are regenerated.
 *
 * Three designs trade critical-path MAC work against usable WPQ size
 * (each one's numbers are its ModeTraits row in config.cc):
 *  - Full-WPQ-MiSU: 2 MACs (entry + WPQ-tree root) before commit;
 *    MACs/root live in on-chip persistent registers, so the whole
 *    ADR budget flushes entries (16).
 *  - Partial-WPQ-MiSU: 1 MAC over (ciphertext, slot counter); MACs
 *    must be flushed with the entries, costing 1/9 of the budget
 *    (13 entries).
 *  - Post-WPQ-MiSU: the same MAC is computed *after* commit; ADR
 *    reserves energy for one in-flight MAC, costing more entries
 *    (10).
 */

#ifndef DOLOS_DOLOS_MISU_HH
#define DOLOS_DOLOS_MISU_HH

#include <array>
#include <vector>

#include "crypto/ctr_pad.hh"
#include "crypto/mac_engine.hh"
#include "dolos/config.hh"
#include "mem/block.hh"
#include "sim/persist_annotations.hh"
#include "sim/stats.hh"

namespace dolos
{

/** Mi-SU-protected image of one WPQ entry (what ADR flushes). */
struct MisuEntryImage
{
    Block ctData{};            ///< pad-encrypted 64B data
    std::uint64_t ctAddr = 0;  ///< pad-encrypted address
    crypto::MacTag mac{};      ///< per-entry MAC (Partial/Post)
};

inline void
dolosDescribeValue(std::ostream &os, const MisuEntryImage &img)
{
    os << persist::describe(img.ctData) << '/'
       << persist::describe(img.ctAddr) << '/'
       << persist::describe(img.mac);
}

/**
 * The Minor Security Unit.
 */
class MiSu
{
  public:
    /**
     * @param design The design row of one of the three Dolos modes.
     * @param capacity Usable WPQ entries for this design.
     * @param mac_latency One MAC computation (Table 1: 160).
     * @param key AES key for pad generation.
     * @param mac MAC engine (not owned).
     */
    MiSu(const ModeTraits &design, unsigned capacity, Cycles mac_latency,
         const crypto::AesKey &key, const crypto::MacEngine &mac);

    /** Critical-path latency added before a write commits. */
    Cycles insertLatency() const;

    /**
     * Earliest tick at which a new write can be *accepted*: the
     * single MAC unit serializes inserts. For Full/Partial the unit
     * is busy until the previous insert's MAC(s) finished; for Post
     * it is busy for the one deferred MAC after the previous commit.
     */
    Tick acceptableAt(Tick arrival) const;

    /**
     * Protect an entry occupying @p slot. Updates the per-entry MAC
     * registers (and, for Full, the WPQ-tree root). For Post, marks
     * the unit busy for one deferred MAC after @p commit_tick.
     */
    MisuEntryImage protect(unsigned slot, Addr addr, const Block &data,
                           Tick commit_tick);

    /** Decrypt a protected image back to (addr, data). */
    std::pair<Addr, Block> unprotect(unsigned slot,
                                     const MisuEntryImage &img) const;

    /**
     * Verify a dumped entry at recovery. For Partial/Post the MAC
     * binds the ciphertext and the slot counter (PCR + slot); for
     * Full the caller checks the root via verifyRoot().
     */
    bool verifyEntry(unsigned slot, const MisuEntryImage &img) const;

    /**
     * Full-WPQ design: recompute the WPQ-tree root over the dumped
     * entry MACs and compare with the on-chip persistent root.
     *
     * @param imgs Entry images in slot order (empty slots skipped by
     *             passing exactly the occupied images with slots).
     */
    bool verifyRoot(
        const std::vector<std::pair<unsigned, MisuEntryImage>> &imgs)
        const;

    /** Mark a slot cleared (Ma-SU finished). Root update is lazy. */
    void clearSlot(unsigned slot);

    /**
     * Reboot after recovery: advance the PCR by the WPQ capacity and
     * regenerate every pad, so dumped pads are never reused.
     */
    void advanceEpoch();

    /**
     * Power failure: drop the unit's volatile timing state. The PCR,
     * pads, per-slot MAC registers, live bits and root register are
     * on-chip *persistent* registers and survive — that survival is
     * exactly what dump authentication at recovery relies on.
     */
    void crash() { busyUntil_ = 0; }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

    /** Persistent counter register (on-chip, survives crashes). */
    std::uint64_t persistentCounter() const { return pcr; }

    /** WPQ-tree root register (on-chip; Full design only). */
    crypto::MacTag persistentRoot() const { return rootRegister; }

    unsigned capacity() const { return capacity_; }
    Tick busyUntil() const { return busyUntil_; }

    stats::StatGroup &statGroup() { return stats_; }

    /** Critical-path cycles the Mi-SU MAC unit has charged so far. */
    std::uint64_t macCycles() const { return statMacCycles.value(); }

    /** Per-design storage overhead report (paper Table 3). */
    struct StorageOverhead
    {
        unsigned persistentCounterBytes;
        unsigned macBytes;
        unsigned padBytes;
        unsigned tagArrayBytes;
    };
    StorageOverhead storageOverhead() const;

  private:
    /** Slot counter used for pad generation and entry MACs. */
    std::uint64_t slotCounter(unsigned slot) const { return pcr + slot; }

    /**
     * One slot's pad for the current epoch. 72 bytes cover data +
     * address; Partial/Post reserve 80 bytes (Table 3), so the extra
     * sub-block is generated either way and reported in the storage
     * overhead.
     */
    using Pad = std::array<std::uint8_t, 80>;

    /** Regenerate every slot's pad for the current epoch. */
    void regeneratePads();

    crypto::MacTag entryMac(unsigned slot,
                            const MisuEntryImage &img) const;

    const ModeTraits &design_;
    unsigned capacity_;
    Cycles macLatency;
    crypto::CtrPadGenerator padGen;
    const crypto::MacEngine &macEngine;

    std::uint64_t pcr = 1; ///< on-chip persistent counter register
    std::vector<Pad> pads;                       ///< per-slot
    std::vector<crypto::MacTag> entryMacs;       ///< per-slot registers
    std::vector<bool> slotLive;                  ///< cleared bits
    crypto::MacTag rootRegister{};               ///< Full design only
    Tick busyUntil_ = 0;                         ///< Post design only

    stats::StatGroup stats_;
    stats::Scalar statProtects;
    stats::Scalar statMacOps;
    stats::Scalar statMacCycles;
    stats::Scalar statDeferredMacs;
    stats::Scalar statEpochs;
    stats::Histogram statInsertLatency{40.0, 16};
};

} // namespace dolos

#endif // DOLOS_DOLOS_MISU_HH
