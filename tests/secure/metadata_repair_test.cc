/**
 * @file
 * Metadata media-fault repair tests: region classification of NVM
 * addresses, the per-region repair paths (counter pages rebuilt by
 * trial MAC, tree nodes re-hashed from children, MAC blocks recomputed
 * from ciphertext + counter), the quarantine cascade with provenance
 * when every repair source is exhausted, the background scrub, and the
 * planted counter-repair bug the torture harness hunts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "secure/merkle_tree.hh"
#include "secure/security_engine.hh"

namespace
{

using namespace dolos;

SecureParams
repairParams()
{
    SecureParams p;
    p.functionalLeaves = 256; // 1 MB protected heap for tests
    p.map.protectedBytes = Addr(256) * pageBytes;
    // Small metadata caches so evictions happen in tests.
    p.counterCache = {"counterCache", 4 * 1024, 4};
    p.mtCache = {"mtCache", 4 * 1024, 8};
    for (int i = 0; i < 16; ++i) {
        p.dataKey[i] = std::uint8_t(i + 1);
        p.macKey[i] = std::uint8_t(0x80 + i);
    }
    return p;
}

Block
pattern(std::uint8_t seed)
{
    Block b;
    for (unsigned i = 0; i < blockSize; ++i)
        b[i] = std::uint8_t(seed ^ (i * 5));
    return b;
}

/** Pin bit @p bit of @p addr to the complement of its stored value. */
void
stickBit(NvmDevice &nvm, Addr addr, unsigned bit)
{
    const Block stored = nvm.readFunctional(addr);
    const bool current = stored[bit / 8] & std::uint8_t(1u << (bit % 8));
    nvm.injectStuckBit(addr, bit, !current);
}

std::string
causeOf(const char *kind, Addr addr)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s_0x%llx", kind,
                  (unsigned long long)addr);
    return buf;
}

struct MetadataRepairTest : ::testing::Test
{
    NvmDevice nvm{NvmParams{}};
    SecurityEngine eng{repairParams(), nvm};

    /** Full write path: security ops + ciphertext to NVM. */
    Tick
    writeThrough(Addr addr, const Block &pt, Tick now)
    {
        const auto r = eng.secureWrite(addr, pt, now);
        return eng.writeCiphertext(addr, r.ciphertext, r.doneTick);
    }
};

TEST(NvmRegions, ClassificationBoundariesAreExact)
{
    AddressMap map;
    map.protectedBytes = Addr(256) * pageBytes;
    EXPECT_EQ(map.regionOf(0), NvmRegion::Data);
    EXPECT_EQ(map.regionOf(map.protectedBytes - 1), NvmRegion::Data);
    EXPECT_EQ(map.regionOf(map.protectedBytes), NvmRegion::Unknown);
    EXPECT_EQ(map.regionOf(AddressMap::counterBase), NvmRegion::Counter);
    EXPECT_EQ(map.regionOf(AddressMap::macBase - 1), NvmRegion::Counter);
    EXPECT_EQ(map.regionOf(AddressMap::macBase), NvmRegion::Mac);
    EXPECT_EQ(map.regionOf(AddressMap::treeBase - 1), NvmRegion::Mac);
    EXPECT_EQ(map.regionOf(AddressMap::treeBase), NvmRegion::Tree);
    EXPECT_EQ(map.regionOf(AddressMap::shadowBase), NvmRegion::Shadow);
    EXPECT_EQ(map.regionOf(AddressMap::wpqDumpBase), NvmRegion::WpqDump);
    EXPECT_EQ(map.regionOf(AddressMap::eccBase), NvmRegion::Ecc);
    EXPECT_EQ(map.regionOf(AddressMap::recoveryJournalAddr()),
              NvmRegion::RecoveryJournal);
}

TEST(NvmRegions, MacCoverageSplitsExactlyAtBlockEight)
{
    // Blocks 0..7 share MAC block 0; block 8 starts the next one (the
    // off-by-one a cascade must not cross).
    EXPECT_EQ(AddressMap::macBlockAddr(7 * blockSize),
              AddressMap::macBlockAddr(0));
    EXPECT_NE(AddressMap::macBlockAddr(8 * blockSize),
              AddressMap::macBlockAddr(0));
    EXPECT_EQ(AddressMap::firstDataOfMacBlock(
                  AddressMap::macBlockAddr(8 * blockSize)),
              8 * blockSize);

    AddressMap map;
    map.protectedBytes = Addr(256) * pageBytes;
    const auto covered =
        map.dataCoveredByMacBlock(AddressMap::macBlockAddr(0));
    ASSERT_EQ(covered.size(), std::size_t(macsPerBlock));
    EXPECT_EQ(covered.front(), 0u);
    EXPECT_EQ(covered.back(), 7 * blockSize);
}

TEST(NvmRegions, CoverageClampsAtTheProtectedBoundary)
{
    // A protected region ending mid-page / mid-MAC-block: coverage
    // enumeration must stop at protectedBytes, or a cascade would
    // quarantine blocks that were never protected.
    AddressMap map;
    map.protectedBytes = 5 * blockSize;
    EXPECT_EQ(
        map.dataCoveredByMacBlock(AddressMap::macBlockAddr(0)).size(),
        5u);
    EXPECT_EQ(map.dataCoveredByCounterBlock(
                     AddressMap::counterBlockAddr(0))
                  .size(),
              5u);
}

TEST_F(MetadataRepairTest, CounterStuckRebuiltByTrialMacAtRecovery)
{
    // Persist the counter frames with one crash+recover cycle, then
    // wear out page 0's frame while the power is off. The recovery
    // scan must disambiguate the stuck cell from tamper and
    // reconstruct the page by trial-MACing the covered ciphertexts
    // against their stored data MACs.
    Tick t = 0;
    for (unsigned i = 0; i < 4; ++i)
        t = writeThrough(i * blockSize, pattern(std::uint8_t(i)), t);
    eng.crash();
    ASSERT_TRUE(eng.recover().rootVerified);

    stickBit(nvm, AddressMap::counterBlockAddr(0), 9);
    eng.crash();
    const auto rec = eng.recover();
    EXPECT_TRUE(rec.rootVerified);
    EXPECT_GE(rec.counterBlocksRepaired, 1u);
    EXPECT_EQ(rec.counterBlocksCascaded, 0u);
    EXPECT_GE(eng.counterBlocksRebuilt(), 1u);
    EXPECT_FALSE(eng.attackDetected());
    EXPECT_EQ(nvm.quarantineCount(), 0u);

    Tick rt = 1'000'000'000;
    for (unsigned i = 0; i < 4; ++i) {
        const auto rd = eng.secureRead(i * blockSize, rt);
        EXPECT_EQ(rd.data, pattern(std::uint8_t(i))) << i;
        rt = rd.completeTick;
    }
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(MetadataRepairTest, TreeNodeStuckRepairedFromChildren)
{
    writeThrough(0x0, pattern(1), 0);
    eng.crash();
    ASSERT_TRUE(eng.recover().rootVerified);

    // Wear out the level-1 node on page 0's path, then force a cold
    // tree walk (the metadata caches died with the crash): the walk
    // must take the repair path — re-hash the node from its children
    // — instead of comparing known-garbage and alarming.
    stickBit(nvm, AddressMap::treeNodeAddr(1, 0), 3);
    eng.crash();
    eng.recover();
    const auto rd = eng.secureRead(0x0, 1'000'000'000);
    EXPECT_EQ(rd.data, pattern(1));
    EXPECT_GE(eng.treeNodesRepaired(), 1u);
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(MetadataRepairTest, MacBlockStuckRebuiltOntoSpareRow)
{
    const Block pt = pattern(3);
    writeThrough(0x1000, pt, 0);
    stickBit(nvm, AddressMap::macBlockAddr(0x1000), 17);

    // Every lane is recomputable from ciphertext + current counter:
    // the worn frame is remapped and rewritten, nothing cascades.
    const auto rd = eng.secureRead(0x1000, 1'000'000);
    EXPECT_EQ(rd.data, pt);
    EXPECT_EQ(eng.macBlocksRebuilt(), 1u);
    EXPECT_FALSE(eng.attackDetected());
    EXPECT_EQ(nvm.quarantineCount(), 0u);
    EXPECT_LT(nvm.sparesLeft(), NvmParams{}.spareBlocks);
}

TEST(MetadataRepairNoSpares, MacCascadeQuarantinesExactlyCoveredBlocks)
{
    NvmParams np;
    np.spareBlocks = 0;
    NvmDevice nvm(np);
    SecurityEngine eng(repairParams(), nvm);

    // Populate both sides of the MAC-block boundary: blocks 0..7 are
    // covered by MAC block 0, blocks 8..9 by its neighbour.
    Tick t = 0;
    for (unsigned i = 0; i < 10; ++i) {
        const auto r = eng.secureWrite(i * blockSize,
                                       pattern(std::uint8_t(i)), t);
        t = eng.writeCiphertext(i * blockSize, r.ciphertext,
                                r.doneTick);
    }
    stickBit(nvm, AddressMap::macBlockAddr(0), 40);

    eng.secureRead(0, t + 1'000'000);
    EXPECT_FALSE(eng.attackDetected());
    EXPECT_EQ(eng.cascadedBlocks(), std::uint64_t(macsPerBlock));

    // The cascade covers exactly the lost frame's blocks: 0..7 are
    // quarantined, the neighbours past the boundary are not.
    for (unsigned i = 0; i < macsPerBlock; ++i)
        EXPECT_TRUE(nvm.isQuarantined(i * blockSize)) << i;
    for (unsigned i = macsPerBlock; i < 10; ++i)
        EXPECT_FALSE(nvm.isQuarantined(i * blockSize)) << i;
    EXPECT_TRUE(nvm.isQuarantined(AddressMap::macBlockAddr(0)));

    const auto &log = nvm.quarantineLog();
    ASSERT_EQ(log.count(0x0), 1u);
    EXPECT_EQ(log.at(0x0).cause,
              causeOf("mac_block", AddressMap::macBlockAddr(0)));
    EXPECT_TRUE(log.at(AddressMap::macBlockAddr(0)).cause.empty());

    // Blocks past the boundary are still served correctly.
    const auto rd = eng.secureRead(8 * blockSize, t + 2'000'000);
    EXPECT_EQ(rd.data, pattern(8));
    EXPECT_FALSE(eng.attackDetected());
}

TEST(MetadataRepairNoSpares, CounterBeyondSearchLimitCascadesWithProvenance)
{
    auto p = repairParams();
    p.counterSearchLimit = 4;
    NvmDevice nvm(NvmParams{});
    SecurityEngine eng(p, nvm);

    const Block hot = pattern(7);
    Tick t = 0;
    for (int i = 0; i < 6; ++i) { // counter of 0x0 ends at 6 > limit
        const auto r = eng.secureWrite(0x0, hot, t);
        t = eng.writeCiphertext(0x0, r.ciphertext, r.doneTick);
    }
    const Block other = pattern(9);
    {
        const auto r = eng.secureWrite(0x2000, other, t);
        t = eng.writeCiphertext(0x2000, r.ciphertext, r.doneTick);
    }
    eng.crash();
    ASSERT_TRUE(eng.recover().rootVerified);

    // Blank the shadow region (slot markers live in the second block
    // of each two-block slot) so the crash-consistency scheme cannot
    // supply the page either, then wear out the counter frame while
    // powered off: every repair source is now exhausted.
    for (Addr s = 0; s < 2048; ++s)
        nvm.writeFunctional(AddressMap::shadowSlotAddr(s), zeroBlock());
    stickBit(nvm, AddressMap::counterBlockAddr(0x0), 2);
    eng.crash();
    const auto rec = eng.recover();

    // The loss cascades to exactly the stored blocks the frame
    // covered — with provenance — and the boot re-anchors on the
    // surviving image instead of raising a false tamper alarm.
    EXPECT_EQ(rec.counterBlocksCascaded, 1u);
    EXPECT_TRUE(rec.rootVerified);
    EXPECT_TRUE(rec.rootReanchored);
    EXPECT_GE(eng.rootReanchors(), 1u);
    EXPECT_FALSE(eng.attackDetected());
    EXPECT_TRUE(nvm.isQuarantined(0x0));
    EXPECT_FALSE(nvm.isQuarantined(0x2000));
    EXPECT_EQ(
        nvm.quarantineLog().at(0x0).cause,
        causeOf("counter_block", AddressMap::counterBlockAddr(0x0)));

    const auto rd = eng.secureRead(0x2000, 1'000'000'000);
    EXPECT_EQ(rd.data, other);
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(MetadataRepairTest, WornShadowSlotsSkippedWithoutAlarm)
{
    // Dirty cached counters whose only persistent copy is the shadow
    // region; wear out every stored shadow block. Recovery must skip
    // the worn slots as media (never tamper) and reconcile the
    // counters through the MAC-pinned sweep.
    const Block pt = pattern(2);
    Tick t = writeThrough(0x1000, pattern(1), 0);
    writeThrough(0x1000, pt, t);
    eng.crash();

    std::vector<Addr> shadow_blocks;
    nvm.store().walk(AddressMap::shadowBase, AddressMap::wpqDumpBase,
                     [&](Addr a, const Block &) {
                         shadow_blocks.push_back(a);
                     });
    ASSERT_FALSE(shadow_blocks.empty());
    for (const Addr a : shadow_blocks)
        stickBit(nvm, a, 7);

    const auto rec = eng.recover();
    EXPECT_GE(rec.shadowMediaSkipped, 1u);
    EXPECT_GE(eng.shadowSlotsSkipped(), 1u);
    EXPECT_FALSE(rec.shadowTamper);
    EXPECT_TRUE(rec.rootVerified);
    EXPECT_FALSE(eng.attackDetected());
    const auto rd = eng.secureRead(0x1000, 1'000'000'000);
    EXPECT_EQ(rd.data, pt);
    EXPECT_FALSE(eng.attackDetected());
}

TEST_F(MetadataRepairTest, ScrubHealsLatentMetadataFaultBeforeTheCrash)
{
    // A stuck cell on a MAC frame while the volatile truth still
    // exists: the scrub finds and repairs it, so the subsequent
    // crash+recovery sees a healthy frame instead of a fatal fault.
    writeThrough(0x1000, pattern(5), 0);
    stickBit(nvm, AddressMap::macBlockAddr(0x1000), 11);

    const auto rep = eng.scrubMetadata();
    EXPECT_GE(rep.blocksScanned, 1u);
    EXPECT_EQ(rep.faultsFound, 1u);
    EXPECT_EQ(rep.repaired, 1u);
    EXPECT_EQ(rep.cascaded, 0u);
    EXPECT_GE(eng.scrubRepairs(), 1u);
    EXPECT_FALSE(eng.attackDetected());

    eng.crash();
    EXPECT_TRUE(eng.recover().rootVerified);
    const auto rd = eng.secureRead(0x1000, 1'000'000'000);
    EXPECT_EQ(rd.data, pattern(5));
    EXPECT_FALSE(eng.attackDetected());
}

TEST(MetadataScrub, IntervalKnobRunsScrubAutomatically)
{
    auto p = repairParams();
    p.scrubIntervalWrites = 4;
    NvmDevice nvm(NvmParams{});
    SecurityEngine eng(p, nvm);
    Tick t = 0;
    for (unsigned i = 0; i < 8; ++i) {
        const auto r = eng.secureWrite(i * blockSize,
                                       pattern(std::uint8_t(i)), t);
        t = eng.writeCiphertext(i * blockSize, r.ciphertext,
                                r.doneTick);
    }
    EXPECT_EQ(eng.scrubPasses(), 2u);
}

TEST(MetadataRepairPlanted, BadCounterRepairBugTripsTheAlarm)
{
    // The torture harness's planted counter-repair bug: the rebuild
    // path adopts the faulted frame verbatim instead of
    // reconstructing from data MACs. The corrupted counter then
    // decrypts garbage whose MAC mismatches on a *clean* read —
    // exactly the alarm the --expect-bug meta-test hunts for.
    auto p = repairParams();
    p.plantCounterRepairBug = true;
    NvmDevice nvm(NvmParams{});
    SecurityEngine eng(p, nvm);
    {
        const auto r = eng.secureWrite(0x0, pattern(6), 0);
        eng.writeCiphertext(0x0, r.ciphertext, r.doneTick);
    }
    eng.crash();
    ASSERT_TRUE(eng.recover().rootVerified);

    stickBit(nvm, AddressMap::counterBlockAddr(0x0), 0);
    eng.crash();
    eng.recover();
    eng.secureRead(0x0, 1'000'000'000);
    EXPECT_TRUE(eng.attackDetected());
}

// --- Repair-outcome table --------------------------------------------
//
// One worn frame per row: a counter, tree or MAC frame covering data
// blocks 0..3, with the default spare rows or none, met on the live
// path (scrub, demand read, scrub again) or after a crash (recovery,
// demand read, scrub). Each row pins every outcome the damage report
// shows. A frame with no spare left is quarantined; its covered data
// cascades only when the frame's content has no on-chip home (a MAC
// frame) or cannot be reconstructed.

enum class RepairPath
{
    Live,
    Recovery,
};

struct RepairRow
{
    const char *name;
    NvmRegion region;
    bool spares;
    RepairPath path;

    std::uint64_t metaMediaFaults;
    std::uint64_t mediaRetries; ///< nvm.mediaRetries: 3 per failed read
    std::uint64_t counterBlocksRebuilt;
    std::uint64_t treeNodesRepaired;
    std::uint64_t macBlocksRebuilt;
    std::uint64_t cascadedBlocks;
    std::uint64_t scrubRepairs;
    std::size_t spareRemaps;
    std::size_t recoveryRepaired; ///< counterBlocksRepaired of the last boot
    /** Quarantine log as "addr/reason/retries/cause", address order. */
    std::vector<std::string> quarantined;
    bool dataLost; ///< block 0 reads back as poison
};

void
PrintTo(const RepairRow &row, std::ostream *os)
{
    *os << row.name;
}

/** One quarantine record as the table compares it. */
std::string
record(Addr addr, const char *reason, const std::string &cause = "")
{
    std::ostringstream os;
    dolosDescribeValue(os, QuarantineRecord{addr, reason, 3, cause});
    return os.str();
}

Addr
wornFrame(NvmRegion region)
{
    switch (region) {
      case NvmRegion::Counter:
        return AddressMap::counterBlockAddr(0);
      case NvmRegion::Tree:
        return AddressMap::treeNodeAddr(1, 0);
      default:
        return AddressMap::macBlockAddr(0);
    }
}

std::vector<std::string>
macCascade()
{
    const Addr mb = AddressMap::macBlockAddr(0);
    std::vector<std::string> q;
    for (Addr a = 0; a < 4 * blockSize; a += blockSize)
        q.push_back(record(a, "covering MAC block unrecoverable",
                           causeOf("mac_block", mb)));
    q.push_back(record(mb, "MAC block media fault (no spare frame left)"));
    return q;
}

const std::string retiredCounter =
    record(AddressMap::counterBlockAddr(0),
           "counter frame unrecoverable (no spare frame left)");
const std::string retiredTree =
    record(AddressMap::treeNodeAddr(1, 0), "tree node frame unrecoverable");

// A retired counter or tree frame keeps its stuck cell, but its content
// lives on-chip: the demand read after it is served from that copy
// without reading the frame again, and the scrub after that skips the
// frame. A frame read again would fail its retries once more, so the
// media-retry column catches it.
const RepairRow repairRows[] = {
    {"CounterLive", NvmRegion::Counter, true, RepairPath::Live,
     1, 3, 1, 0, 0, 0, 1, 1, 0, {}, false},
    {"CounterLiveNoSpare", NvmRegion::Counter, false, RepairPath::Live,
     1, 3, 1, 0, 0, 0, 1, 0, 0, {retiredCounter}, false},
    {"CounterRecovery", NvmRegion::Counter, true, RepairPath::Recovery,
     1, 3, 1, 0, 0, 0, 0, 1, 1, {}, false},
    {"CounterRecoveryNoSpare", NvmRegion::Counter, false,
     RepairPath::Recovery, 1, 3, 1, 0, 0, 0, 0, 0, 1, {retiredCounter},
     false},
    {"TreeLive", NvmRegion::Tree, true, RepairPath::Live,
     1, 3, 0, 1, 0, 0, 1, 1, 0, {}, false},
    {"TreeLiveNoSpare", NvmRegion::Tree, false, RepairPath::Live,
     1, 3, 0, 1, 0, 0, 1, 0, 0, {retiredTree}, false},
    {"TreeRecovery", NvmRegion::Tree, true, RepairPath::Recovery,
     1, 3, 0, 1, 0, 0, 0, 1, 0, {}, false},
    {"TreeRecoveryNoSpare", NvmRegion::Tree, false, RepairPath::Recovery,
     1, 3, 0, 1, 0, 0, 0, 0, 0, {retiredTree}, false},
    {"MacLive", NvmRegion::Mac, true, RepairPath::Live,
     1, 3, 0, 0, 1, 0, 1, 1, 0, {}, false},
    {"MacLiveNoSpare", NvmRegion::Mac, false, RepairPath::Live,
     1, 3, 0, 0, 0, 4, 0, 0, 0, macCascade(), true},
    {"MacRecovery", NvmRegion::Mac, true, RepairPath::Recovery,
     1, 3, 0, 0, 1, 0, 0, 1, 0, {}, false},
    {"MacRecoveryNoSpare", NvmRegion::Mac, false, RepairPath::Recovery,
     1, 3, 0, 0, 0, 4, 0, 0, 0, macCascade(), true},
};

struct RepairTable : ::testing::TestWithParam<RepairRow>
{
};

TEST_P(RepairTable, OutcomeMatchesTheRow)
{
    const RepairRow &row = GetParam();
    NvmParams np;
    if (!row.spares)
        np.spareBlocks = 0;
    NvmDevice nvm(np);
    auto p = repairParams();
    // One two-line, direct-mapped tree cache: inserting node (2, 0)
    // evicts node (1, 0), so the worn tree frame is stored in NVM and
    // the scrub walk sees it like the counter and MAC frames.
    p.mtCache = {"mtCache", 2 * blockSize, 1};
    SecurityEngine eng(p, nvm);

    Tick t = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const auto r = eng.secureWrite(i * blockSize,
                                       pattern(std::uint8_t(i)), t);
        t = eng.writeCiphertext(i * blockSize, r.ciphertext, r.doneTick);
    }
    eng.crash();
    SecureRecoveryResult boot = eng.recover();
    ASSERT_TRUE(boot.rootVerified);
    const Addr frame = wornFrame(row.region);
    ASSERT_TRUE(nvm.store().contains(frame));
    stickBit(nvm, frame, 9);

    if (row.path == RepairPath::Live) {
        eng.scrubMetadata();
    } else {
        eng.crash();
        boot = eng.recover();
        EXPECT_TRUE(boot.rootVerified);
        EXPECT_FALSE(boot.rootReanchored);
    }
    const auto rd = eng.secureRead(0x0, 1'000'000'000);
    EXPECT_EQ(rd.data, row.dataLost ? zeroBlock() : pattern(0));
    eng.scrubMetadata();

    EXPECT_EQ(eng.metaMediaFaults(), row.metaMediaFaults);
    EXPECT_EQ(nvm.mediaRetries(), row.mediaRetries);
    EXPECT_EQ(eng.counterBlocksRebuilt(), row.counterBlocksRebuilt);
    EXPECT_EQ(eng.treeNodesRepaired(), row.treeNodesRepaired);
    EXPECT_EQ(eng.macBlocksRebuilt(), row.macBlocksRebuilt);
    EXPECT_EQ(eng.cascadedBlocks(), row.cascadedBlocks);
    EXPECT_EQ(eng.scrubRepairs(), row.scrubRepairs);
    EXPECT_EQ(eng.shadowSlotsSkipped(), 0u);
    EXPECT_EQ(eng.rootReanchors(), 0u);
    EXPECT_EQ(eng.scrubPasses(), row.path == RepairPath::Live ? 2u : 1u);
    EXPECT_EQ(nvm.remapLog().size(), row.spareRemaps);
    EXPECT_EQ(boot.counterBlocksRepaired, row.recoveryRepaired);
    EXPECT_EQ(boot.counterBlocksCascaded, 0u);

    std::vector<std::string> log;
    for (const auto &[addr, rec] : nvm.quarantineLog()) {
        std::ostringstream os;
        dolosDescribeValue(os, rec);
        log.push_back(os.str());
    }
    EXPECT_EQ(log, row.quarantined);
    // System::unrecoverableMedia is exactly "anything quarantined".
    EXPECT_EQ(nvm.quarantineCount() != 0, !row.quarantined.empty());
    EXPECT_FALSE(eng.attackDetected());
}

INSTANTIATE_TEST_SUITE_P(Rows, RepairTable,
                         ::testing::ValuesIn(repairRows),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

} // namespace
