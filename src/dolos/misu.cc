/**
 * @file
 * Mi-SU implementation.
 */

#include "dolos/misu.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dolos
{

namespace
{
/** High page-id marking Mi-SU IVs (disjoint from Ma-SU data IVs). */
constexpr std::uint64_t misuIvDomain = 0xD0105ULL << 20;
} // namespace

MiSu::MiSu(const ModeTraits &design, unsigned capacity, Cycles mac_latency,
           const crypto::AesKey &key, const crypto::MacEngine &mac)
    : design_(design),
      capacity_(capacity),
      macLatency(mac_latency),
      padGen(key),
      macEngine(mac),
      entryMacs(capacity),
      slotLive(capacity, false),
      stats_("misu")
{
    DOLOS_ASSERT(design.misu, "MiSu requires a Dolos mode");
    regeneratePads();

    // The Full-WPQ root must cover the *initial* (empty) register
    // file too: a crash before the first insertion dumps zero entries
    // and recovery still authenticates the dump against this root.
    rootRegister = macEngine.compute(
        entryMacs.data(), entryMacs.size() * sizeof(crypto::MacTag));

    stats_.addScalar(&statProtects, "entriesProtected",
                     "WPQ entries pad-encrypted and MACed");
    stats_.addScalar(&statMacOps, "macOps", "MAC computations run");
    stats_.addScalar(&statMacCycles, "macCycles",
                     "critical-path cycles spent in Mi-SU MACs");
    stats_.addScalar(&statDeferredMacs, "deferredMacs",
                     "Post-WPQ MACs computed after commit");
    stats_.addScalar(&statEpochs, "epochAdvances",
                     "pad regenerations after a dump exposed pads");
    stats_.addHistogram(&statInsertLatency, "insertLatency",
                        "critical-path cycles added per insertion");
}

Cycles
MiSu::insertLatency() const
{
    // Full: entry/L1 MAC + WPQ root (Fig. 8); Partial: one BMT-style
    // MAC (Fig. 9); Post: none, the MAC is deferred (Fig. 10).
    return design_.inPathMacs * macLatency;
}

Tick
MiSu::acceptableAt(Tick arrival) const
{
    return std::max(arrival, busyUntil_);
}

void
MiSu::regeneratePads()
{
    pads.resize(capacity_);
    for (unsigned s = 0; s < capacity_; ++s)
        padGen.generate({misuIvDomain, s, slotCounter(s)}, pads[s]);
}

crypto::MacTag
MiSu::entryMac(unsigned slot, const MisuEntryImage &img) const
{
    const std::uint64_t ctr = slotCounter(slot);
    return macEngine.computeParts(
        {{&ctr, sizeof(ctr)},
         {&img.ctAddr, sizeof(img.ctAddr)},
         {img.ctData.data(), img.ctData.size()}});
}

MisuEntryImage
MiSu::protect(unsigned slot, Addr addr, const Block &data,
              Tick commit_tick)
{
    DOLOS_ASSERT(slot < capacity_, "slot %u out of range", slot);
    MisuEntryImage img;
    img.ctData = data;
    img.ctAddr = addr;
    const auto &pad = pads[slot];
    crypto::xorInto(img.ctData.data(), pad.data(), blockSize);
    for (int i = 0; i < 8; ++i)
        img.ctAddr ^= std::uint64_t(pad[blockSize + i]) << (8 * i);

    img.mac = entryMac(slot, img);
    entryMacs[slot] = img.mac;
    slotLive[slot] = true;

    if (design_.rootMac) {
        // Root over all entry-MAC registers (the tiny WPQ tree).
        rootRegister = macEngine.compute(
            entryMacs.data(),
            entryMacs.size() * sizeof(crypto::MacTag));
    }

    // The MAC unit frees at the commit tick (Full/Partial pay their
    // MACs before commit); Post's single deferred MAC runs after.
    busyUntil_ = commit_tick + design_.deferredMacs * macLatency;

    ++statProtects;
    const Cycles in_path = insertLatency();
    statMacCycles += in_path;
    statInsertLatency.sample(double(in_path));
    DOLOS_TRACE(trace::Stage::MisuPadXor,
                commit_tick > in_path ? commit_tick - in_path - 1
                                      : commit_tick,
                commit_tick > in_path ? commit_tick - in_path
                                      : commit_tick,
                addr, slot);
    statMacOps += design_.inPathMacs + design_.deferredMacs;
    statDeferredMacs += design_.deferredMacs;
    DOLOS_TRACE(trace::Stage::MisuMac, commit_tick - in_path, busyUntil_,
                addr, slot);
    debugPrintf("Misu", "protect slot=%u addr=0x%llx commit=%llu",
                slot, (unsigned long long)addr,
                (unsigned long long)commit_tick);
    return img;
}

std::pair<Addr, Block>
MiSu::unprotect(unsigned slot, const MisuEntryImage &img) const
{
    Block data = img.ctData;
    Addr addr = img.ctAddr;
    const auto &pad = pads[slot];
    crypto::xorInto(data.data(), pad.data(), blockSize);
    for (int i = 0; i < 8; ++i)
        addr ^= std::uint64_t(pad[blockSize + i]) << (8 * i);
    return {addr, data};
}

bool
MiSu::verifyEntry(unsigned slot, const MisuEntryImage &img) const
{
    return entryMac(slot, img) == img.mac;
}

bool
MiSu::verifyRoot(
    const std::vector<std::pair<unsigned, MisuEntryImage>> &imgs) const
{
    // Recompute the register file from the dump, then the root.
    std::vector<crypto::MacTag> macs = entryMacs;
    for (const auto &[slot, img] : imgs) {
        if (slot >= capacity_)
            return false;
        macs[slot] = entryMac(slot, img);
    }
    const crypto::MacTag root = macEngine.compute(
        macs.data(), macs.size() * sizeof(crypto::MacTag));
    return root == rootRegister;
}

void
MiSu::clearSlot(unsigned slot)
{
    DOLOS_ASSERT(slot < capacity_, "slot %u out of range", slot);
    slotLive[slot] = false;
    // Paper §4.3: a cleared entry's MAC need not be recalculated —
    // rewriting the stale entry at recovery is harmless.
}

void
MiSu::advanceEpoch()
{
    ++statEpochs;
    pcr += capacity_;
    regeneratePads();
    std::fill(slotLive.begin(), slotLive.end(), false);
    busyUntil_ = 0;
}

MiSu::StorageOverhead
MiSu::storageOverhead() const
{
    StorageOverhead o{};
    o.persistentCounterBytes = 8;
    // Full: entry-MAC registers (16 x 8B) + L1 MACs (2 x 8B) + root +
    // indices, 192B in the paper.
    o.macBytes = design_.misuMacBytes;
    o.padBytes = design_.entryBytes * capacity_;
    o.tagArrayBytes = 8 * capacity_; // volatile address registers
    return o;
}

persist::StateManifest
MiSu::stateManifest() const
{
    persist::StateManifest m("MiSu");
    DOLOS_MF_CONST(m, design_);
    DOLOS_MF_CONST(m, capacity_);
    DOLOS_MF_CONST(m, macLatency);
    DOLOS_MF_CONST(m, padGen);
    DOLOS_MF_CONST(m, macEngine);
    DOLOS_MF_P(m, pcr);
    DOLOS_MF_P(m, pads);
    DOLOS_MF_P(m, entryMacs);
    DOLOS_MF_P(m, slotLive);
    DOLOS_MF_P(m, rootRegister);
    DOLOS_MF_V(m, busyUntil_);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statProtects);
    DOLOS_MF_P(m, statMacOps);
    DOLOS_MF_P(m, statMacCycles);
    DOLOS_MF_P(m, statDeferredMacs);
    DOLOS_MF_P(m, statEpochs);
    DOLOS_MF_P(m, statInsertLatency);
    return m;
}

} // namespace dolos
