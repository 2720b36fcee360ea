/**
 * @file
 * Security engine implementation.
 */

#include "secure/security_engine.hh"

#include <algorithm>
#include <cstdio>

#include "secure/osiris.hh"
#include "sim/crash_points.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/trace.hh"

namespace dolos
{

MetaCache::MetaCache(const MetaCacheParams &p)
    : tags(p.name, p.sizeBytes, p.assoc), stats_(p.name)
{
    stats_.addScalar(&statHits, "hits", "metadata lookups that hit");
    stats_.addScalar(&statMisses, "misses", "metadata lookups that missed");
    stats_.addScalar(&statDirtyEv, "dirtyEvictions",
                     "dirty metadata blocks evicted");
}

bool
MetaCache::lookup(Addr addr)
{
    if (TagArray::Line *line = tags.find(addr)) {
        ++statHits;
        tags.touch(*line);
        return true;
    }
    ++statMisses;
    return false;
}

std::optional<Addr>
MetaCache::insert(Addr addr, bool dirty)
{
    const TagArray::Line victim = tags.insert(addr, dirty);
    if (!victim.valid || !victim.dirty)
        return std::nullopt;
    ++statDirtyEv;
    return victim.tag;
}

void
MetaCache::markDirty(Addr addr)
{
    if (TagArray::Line *line = tags.find(addr))
        line->dirty = true;
}

void
MetaCache::collectStateManifests(std::vector<persist::StateManifest> &out,
                                 const std::string &instance) const
{
    out.push_back(stateManifest(instance));
    out.push_back(tags.stateManifest(instance, persist::Kind::Volatile));
}

persist::StateManifest
MetaCache::stateManifest(std::string instance) const
{
    persist::StateManifest m("MetaCache", std::move(instance));
    DOLOS_MF_DELEGATED_V(m, tags);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statHits);
    DOLOS_MF_P(m, statMisses);
    DOLOS_MF_P(m, statDirtyEv);
    return m;
}

SecurityEngine::SecurityEngine(const SecureParams &p, NvmDevice &nvm)
    : params(p),
      nvm_(nvm),
      mac(p.macKey),
      padGen(p.dataKey),
      tree(p.functionalLeaves, mac),
      ctrCache(p.counterCache),
      mtCache(p.mtCache),
      shadow(ctrCache.numSlots(), nvm, mac),
      stats_("secEngine")
{
    rootRegister = tree.root();

    stats_.addScalar(&statWrites, "writes", "secure write operations");
    stats_.addScalar(&statReads, "reads", "secure read operations");
    stats_.addScalar(&statAttacks, "attacksDetected",
                     "integrity verification failures");
    stats_.addScalar(&statOverflows, "pageReencryptions",
                     "minor-counter overflow page re-encryptions");
    stats_.addScalar(&statColdReads, "coldReads",
                     "reads of never-written blocks");
    stats_.addScalar(&statQuarantineReads, "quarantineReads",
                     "reads served zeros from quarantined blocks");
    stats_.addScalar(&statMetaMediaFaults, "metaMediaFaults",
                     "persistent media faults on metadata frames");
    stats_.addScalar(&statCounterBlocksRebuilt, "counterBlocksRebuilt",
                     "counter blocks repaired (truth rewrite or "
                     "trial-MAC reconstruction)");
    stats_.addScalar(&statTreeNodesRepaired, "treeNodesRepaired",
                     "tree nodes re-hashed from children and rewritten");
    stats_.addScalar(&statMacBlocksRebuilt, "macBlocksRebuilt",
                     "MAC blocks recomputed from ciphertext + counter");
    stats_.addScalar(&statCascadedBlocks, "cascadedBlocks",
                     "data blocks quarantined by metadata-loss cascade");
    stats_.addScalar(&statShadowSlotsSkipped, "shadowSlotsSkipped",
                     "worn shadow slots skipped during recovery scans");
    stats_.addScalar(&statRootReanchored, "rootReanchored",
                     "recoveries that re-anchored the root after "
                     "MAC-pinned repair");
    stats_.addScalar(&statScrubPasses, "scrubPasses",
                     "background metadata scrub passes");
    stats_.addScalar(&statScrubRepairs, "scrubRepairs",
                     "metadata faults repaired by the scrubber");
    stats_.addScalar(&statCtrFetchCycles, "ctrFetchCycles",
                     "write-path cycles fetching/verifying counters");
    stats_.addScalar(&statAesCycles, "aesCycles",
                     "write-path cycles generating AES pads");
    stats_.addScalar(&statMacCycles, "macCycles",
                     "write-path cycles computing data MACs");
    stats_.addScalar(&statBmtCycles, "bmtCycles",
                     "write-path cycles climbing the integrity tree");
    stats_.addScalar(&statBmtCoalesced, "bmtCoalescedUpdates",
                     "tree levels coalesced onto in-flight root-path "
                     "updates (bmtPipeline)");
    stats_.addScalar(&statTagPrefetchIssued, "tagPrefetchIssued",
                     "always 0 (tag prefetch is retired)");
    stats_.addScalar(&statTagPrefetchHits, "tagPrefetchHits",
                     "always 0 (tag prefetch is retired)");
    stats_.addAverage(&statWriteLatency, "writeLatency",
                      "security-op cycles per write");
    stats_.addAverage(&statReadLatency, "readLatency",
                      "cycles per secure read");
    stats_.addAverage(&statTreeWalkLevels, "treeWalkLevels",
                      "tree levels fetched per counter miss");
    stats_.addChild(&ctrCache.statGroup());
    stats_.addChild(&mtCache.statGroup());
    stats_.addChild(&shadow.statGroup());
}

void
SecurityEngine::noteAttack(const char *what)
{
    ++statAttacks;
    warn("%s", what);
}

unsigned
SecurityEngine::writeMacOps() const
{
    return params.treePolicy == TreeUpdatePolicy::EagerMerkle
               ? params.macOpsEagerWrite
               : params.macOpsLazyWrite;
}

void
SecurityEngine::applyPad(Block &data, Addr addr,
                         std::uint64_t counter) const
{
    Block pad;
    padGen.generate({AddressMap::pageOf(addr),
                     AddressMap::blockInPage(addr), counter},
                    pad);
    crypto::xorInto(data.data(), pad.data(), blockSize);
}

crypto::MacTag
SecurityEngine::dataMac(Addr addr, const Block &ciphertext,
                        std::uint64_t counter) const
{
    return mac.computeParts({{&addr, sizeof(addr)},
                             {&counter, sizeof(counter)},
                             {ciphertext.data(), ciphertext.size()}});
}

void
SecurityEngine::storeDataMac(Addr addr, const crypto::MacTag &tag)
{
    const Addr mac_block = AddressMap::macBlockAddr(addr);
    Block b = nvm_.readFunctional(mac_block);
    std::memcpy(b.data() + AddressMap::macOffsetInBlock(addr),
                tag.data(), tag.size());
    nvm_.writeFunctional(mac_block, b);
}

crypto::MacTag
SecurityEngine::loadDataMac(Addr addr) const
{
    const Block b = nvm_.readFunctional(AddressMap::macBlockAddr(addr));
    crypto::MacTag tag;
    std::memcpy(tag.data(), b.data() + AddressMap::macOffsetInBlock(addr),
                tag.size());
    return tag;
}

namespace
{
/** How the lost frame of one metadata region is repaired or contained. */
struct FrameKind
{
    const char *remapReason = ""; ///< the spare-row remap record
    /**
     * Quarantine reason for a frame with no spare row left whose
     * content lives on-chip; nullptr when it has no on-chip home, so
     * losing the frame loses the data it covers.
     */
    const char *retireReason = nullptr;
    // The data cascade, when the frame's content is lost.
    const char *name = "";        ///< warning prefix
    const char *causeKind = "";   ///< provenance tag prefix
    const char *lostReason = "";  ///< the lost frame's quarantine reason
    const char *coverReason = ""; ///< each covered block's reason
    std::vector<Addr> (AddressMap::*covered)(Addr) const = nullptr;
};

constexpr FrameKind counterFrame{
    .remapReason = "counter frame media fault",
    .retireReason = "counter frame unrecoverable (no spare frame left)",
    .name = "counter block",
    .causeKind = "counter_block",
    .lostReason = "counter block media fault (reconstruction failed)",
    .coverReason = "covering counter block unrecoverable",
    .covered = &AddressMap::dataCoveredByCounterBlock};

// A tree frame is never lost, as its children re-hash it: worst case
// it is retired and the node lives on-chip.
constexpr FrameKind treeFrame{
    .remapReason = "tree node media fault",
    .retireReason = "tree node frame unrecoverable"};

constexpr FrameKind macFrame{
    .remapReason = "MAC block media fault",
    .name = "MAC block",
    .causeKind = "mac_block",
    .lostReason = "MAC block media fault (no spare frame left)",
    .coverReason = "covering MAC block unrecoverable",
    .covered = &AddressMap::dataCoveredByMacBlock};

const FrameKind &
frameKind(NvmRegion region)
{
    switch (region) {
      case NvmRegion::Counter:
        return counterFrame;
      case NvmRegion::Tree:
        return treeFrame;
      default:
        return macFrame;
    }
}
} // namespace

void
SecurityEngine::cascadeQuarantine(Addr frame, unsigned retries)
{
    const FrameKind &kind = frameKind(params.map.regionOf(frame));
    char cause[48];
    std::snprintf(cause, sizeof(cause), "%s_0x%llx", kind.causeKind,
                  (unsigned long long)frame);
    nvm_.quarantine(frame, kind.lostReason, retries);
    std::size_t lost = 0;
    for (const Addr a : (params.map.*kind.covered)(frame)) {
        if (!nvm_.store().contains(a) || nvm_.isQuarantined(a))
            continue;
        nvm_.quarantine(a, kind.coverReason, retries, cause);
        ++statCascadedBlocks;
        ++lost;
    }
    warn("%s 0x%llx unrecoverable: %zu data blocks quarantined",
         kind.name, (unsigned long long)frame, lost);
}

std::optional<CounterPage>
SecurityEngine::rebuildCounterPage(Addr page_idx)
{
    const Addr cb_addr = AddressMap::counterBase + page_idx * blockSize;
    if (params.plantCounterRepairBug) {
        // Planted bug (torture --expect-bug meta-test): adopt the
        // faulted NVM image — stuck cells and all — instead of
        // reconstructing from data MACs.
        return CounterPage::unpack(nvm_.readFunctionalChecked(cb_addr));
    }

    // Each covered ciphertext's stored data MAC pins its counter: the
    // MAC input is (addr, counter, ciphertext), so an ascending search
    // over candidates finds the one value the engine would accept.
    // MACs are keyed, so a match authenticates the reconstruction as
    // strongly as a fetch verified against the tree would.
    CounterPage page{};
    std::optional<std::uint64_t> major;
    bool pinned = false;
    for (const Addr a : params.map.dataCoveredByCounterBlock(cb_addr)) {
        if (!nvm_.store().contains(a) || nvm_.isQuarantined(a))
            continue;
        const Block ct = nvm_.readFunctional(a);
        const crypto::MacTag stored = loadDataMac(a);
        bool found = false;
        for (std::uint64_t c = 0; c < params.counterSearchLimit; ++c) {
            if (dataMac(a, ct, c) == stored) {
                const std::uint64_t m = c / minorCounterLimit;
                if (major && *major != m)
                    return std::nullopt; // split-counter invariant broken
                major = m;
                page.minors[AddressMap::blockInPage(a)] =
                    std::uint8_t(c % minorCounterLimit);
                found = true;
                pinned = true;
                break;
            }
        }
        if (!found)
            return std::nullopt; // true counter beyond the search limit
    }
    if (!pinned)
        return std::nullopt; // no stored block left to pin the page
    page.major = *major;
    return page;
}

SecurityEngine::FrameFate
SecurityEngine::repairFrame(Addr frame, unsigned retries, bool recovering)
{
    ++statMetaMediaFaults;
    if (params.map.regionOf(frame) == NvmRegion::Counter) {
        const Addr page_idx = AddressMap::pageOfCounterBlock(frame);
        if (!counters.hasPage(page_idx)) {
            if (const auto rebuilt = rebuildCounterPage(page_idx))
                counters.restorePage(page_idx, *rebuilt);
            else if (recovering)
                return FrameFate::Pending;
        }
    }
    return settleFrame(frame, retries, recovering);
}

SecurityEngine::FrameFate
SecurityEngine::settleFrame(Addr frame, unsigned retries, bool recovering)
{
    const NvmRegion region = params.map.regionOf(frame);
    const FrameKind &kind = frameKind(region);
    // The frame's content, from on-chip state alone.
    Block image{};
    stats::Scalar *rewritten = &statMacBlocksRebuilt;
    if (region == NvmRegion::Counter) {
        const Addr page_idx = AddressMap::pageOfCounterBlock(frame);
        if (!counters.hasPage(page_idx)) {
            cascadeQuarantine(frame, retries);
            return FrameFate::Cascaded;
        }
        image = counters.page(page_idx).pack();
        rewritten = &statCounterBlocksRebuilt;
    } else if (region == NvmRegion::Tree) {
        // The children's current tags pin the node's only value.
        const auto [level, idx] = AddressMap::treeNodeOf(frame);
        const crypto::MacTag tag = level == 0
                                       ? tree.nodeTag(0, idx)
                                       : tree.repairNode(level, idx);
        std::memcpy(image.data(), tag.data(), tag.size());
        rewritten = &statTreeNodesRepaired;
    } else {
        // Every lane is recomputable: the covered ciphertext and its
        // current counter pin the only MAC the engine would accept. A
        // device-flagged frame is wear, not tamper (an adversary
        // leaves no media flag), so re-blessing the intact ciphertext
        // loses nothing.
        for (const Addr a : params.map.dataCoveredByMacBlock(frame)) {
            if (!nvm_.store().contains(a) || nvm_.isQuarantined(a))
                continue;
            const crypto::MacTag tag =
                dataMac(a, nvm_.readFunctional(a), counters.counterOf(a));
            std::memcpy(image.data() + AddressMap::macOffsetInBlock(a),
                        tag.data(), tag.size());
        }
    }

    std::string why = kind.remapReason;
    if (recovering)
        why += " (recovery)";
    if (!nvm_.remapToSpare(frame, std::move(why))) {
        if (!kind.retireReason) {
            cascadeQuarantine(frame, retries);
            return FrameFate::Cascaded;
        }
        nvm_.quarantine(frame, kind.retireReason, retries);
    }
    nvm_.writeFunctional(frame, image);
    ++*rewritten;
    return FrameFate::Repaired;
}

crypto::MacTag
SecurityEngine::loadDataMacHealed(Addr addr)
{
    const Addr mb_addr = AddressMap::macBlockAddr(addr);
    MediaRetry m;
    Block b = nvm_.readCheckedRetried(mb_addr, m);
    if (m.failed) {
        // Persistent fault on the MAC frame itself: rebuild it (or
        // cascade). Either way the caller re-checks quarantine state.
        b = repairFrame(mb_addr, m.retries) == FrameFate::Repaired
                ? nvm_.readFunctional(mb_addr)
                : Block{};
    }
    crypto::MacTag tag;
    std::memcpy(tag.data(), b.data() + AddressMap::macOffsetInBlock(addr),
                tag.size());
    return tag;
}

void
SecurityEngine::storeEcc(Addr addr, std::uint16_t code)
{
    const Addr ecc_block = AddressMap::eccBlockAddr(addr);
    Block b = nvm_.readFunctional(ecc_block);
    std::memcpy(b.data() + AddressMap::eccOffsetInBlock(addr), &code,
                sizeof(code));
    nvm_.writeFunctional(ecc_block, b);
}

std::uint16_t
SecurityEngine::loadEcc(Addr addr) const
{
    const Block b = nvm_.readFunctional(AddressMap::eccBlockAddr(addr));
    std::uint16_t code;
    std::memcpy(&code, b.data() + AddressMap::eccOffsetInBlock(addr),
                sizeof(code));
    return code;
}

void
SecurityEngine::verifyFetchedPage(Addr page_idx, const CounterPage &page)
{
    if (tree.leafTagOf(page.pack()) != tree.nodeTag(0, page_idx)) {
        ++statAttacks;
        warn("counter block for page %llu failed tree verification",
             (unsigned long long)page_idx);
    }
}

void
SecurityEngine::evictCounterBlock(Addr counter_block_addr, Tick now)
{
    const Addr page_idx =
        (counter_block_addr - AddressMap::counterBase) / blockSize;
    // The page must exist in the volatile store: it was cached.
    nvm_.write(counter_block_addr, counters.page(page_idx).pack(), now);
    // Metadata write-through: the persisted counter only catches up
    // to the volatile truth here, so power loss right after is a
    // state recovery must already handle.
    DOLOS_CRASH_POINT(MasuCtrEvict);
}

void
SecurityEngine::evictTreeNode(Addr node_addr, Tick now)
{
    const auto [level, idx] = AddressMap::treeNodeOf(node_addr);
    Block b{};
    const crypto::MacTag tag = tree.nodeTag(level, idx);
    std::memcpy(b.data(), tag.data(), tag.size());
    nvm_.write(node_addr, b, now);
}

Tick
SecurityEngine::fetchCounter(Addr addr, Tick start, bool for_write)
{
    const Addr cb_addr = AddressMap::counterBlockAddr(addr);
    if (ctrCache.lookup(cb_addr)) {
        if (for_write)
            ctrCache.markDirty(cb_addr);
        return start;
    }

    const Addr page_idx = AddressMap::pageOf(addr);
    if (nvm_.isQuarantined(cb_addr) && counters.hasPage(page_idx)) {
        // A retired frame: its page lives on-chip. Re-reading the worn
        // frame would only fail its retries and repair it again, and
        // nothing fetched needs the tree's verification.
        if (const auto ev = ctrCache.insert(cb_addr, for_write))
            evictCounterBlock(*ev, start);
        return start;
    }

    // Miss: fetch the counter block from NVM. A device-flagged read
    // is suspect cells, not evidence of tamper: retry with doubling
    // backoff, and if the fault persists take the repair path instead
    // of comparing known-garbage against the truth.
    MediaRetry cb_media;
    const ReadResult r = nvm_.readRetried(cb_addr, start, cb_media);
    Tick t = r.completeTick;
    if (cb_media.failed) {
        repairFrame(cb_addr, cb_media.retries);
    } else {
        const CounterPage fetched = CounterPage::unpack(r.data);
        if (counters.hasPage(page_idx)) {
            // Volatile truth exists (block was evicted earlier): the
            // NVM copy must match it exactly, or someone tampered
            // with NVM.
            if (!(fetched == counters.page(page_idx))) {
                ++statAttacks;
                warn("counter block 0x%llx modified in NVM",
                     (unsigned long long)cb_addr);
            }
        } else {
            // First touch since boot: verify against the trusted
            // tree, then adopt.
            verifyFetchedPage(page_idx, fetched);
            counters.restorePage(page_idx, fetched);
        }
    }

    // Walk the tree upward until a trusted level: a cached node, or a
    // retired one that lives on-chip. Each missing level costs an NVM
    // fetch plus a MAC verification. The root itself lives in an
    // on-chip register and is never fetched.
    unsigned walked = 0;
    Addr idx = page_idx;
    for (unsigned lvl = 1; lvl + 1 < tree.numLevels(); ++lvl) {
        idx /= MerkleTree::arity;
        const Addr node_addr = AddressMap::treeNodeAddr(lvl, idx);
        if (mtCache.lookup(node_addr) || nvm_.isQuarantined(node_addr))
            break;
        ++walked;
        MediaRetry node_media;
        const ReadResult nr = nvm_.readRetried(node_addr, t, node_media);
        t = nr.completeTick + params.macLatency;
        if (node_media.failed) {
            repairFrame(node_addr, node_media.retries);
        } else if (nvm_.store().contains(node_addr)) {
            crypto::MacTag stored;
            std::memcpy(stored.data(), nr.data.data(), stored.size());
            if (stored != tree.nodeTag(lvl, idx)) {
                ++statAttacks;
                warn("tree node (%u, %llu) modified in NVM", lvl,
                     (unsigned long long)idx);
            }
        }
        if (const auto ev = mtCache.insert(node_addr, false))
            evictTreeNode(*ev, t);
    }
    statTreeWalkLevels.sample(double(walked));

    if (const auto ev = ctrCache.insert(cb_addr, for_write))
        evictCounterBlock(*ev, t);
    return t;
}

Tick
SecurityEngine::reencryptPage(Addr page_idx, const CounterPage &old_page,
                              Tick start)
{
    ++statOverflows;
    const CounterPage &new_page = counters.page(page_idx);
    Tick done = start;
    for (unsigned idx = 0; idx < 64; ++idx) {
        const Addr addr = page_idx * pageBytes + Addr(idx) * blockSize;
        if (!nvm_.store().contains(addr))
            continue; // never written: nothing to re-encrypt
        const ReadResult r = nvm_.read(addr, start);
        Block data = r.data;
        applyPad(data, addr, old_page.counterOf(idx));
        applyPad(data, addr, new_page.counterOf(idx));
        const Tick w =
            nvm_.write(addr, data, r.completeTick + params.aesLatency);
        storeDataMac(addr, dataMac(addr, data, new_page.counterOf(idx)));
        done = std::max(done, w);
    }
    return done;
}

Tick
SecurityEngine::chargeBmtClimb(Addr page_idx, Tick start)
{
    const unsigned bmt_levels = writeMacOps() - 1;
    unsigned charged = bmt_levels;
    Tick joined_done = 0;

    if (params.bmtPipeline) {
        // Retire window entries whose root update already completed:
        // their per-level engines are free again and their path is no
        // longer in flight.
        std::erase_if(bmtInflight, [&](const BmtInflight &e) {
            return e.done <= start;
        });

        // Find the in-flight path sharing the most ancestor levels
        // with this write. Timing level L of a climb touches ancestor
        // page_idx >> (3*L) (8-ary tree); two paths join at the first
        // L where the ancestors match and share everything above.
        unsigned best_shared = 0;
        for (const BmtInflight &e : bmtInflight) {
            unsigned join = bmt_levels;
            for (unsigned lvl = 0; lvl < bmt_levels; ++lvl) {
                if ((page_idx >> (3 * lvl)) ==
                    (e.pageIdx >> (3 * lvl))) {
                    join = lvl;
                    break;
                }
            }
            const unsigned shared = bmt_levels - join;
            if (shared > best_shared) {
                best_shared = shared;
                joined_done = e.done;
            }
        }
        if (best_shared > 0) {
            charged = bmt_levels - best_shared;
            statBmtCoalesced += best_shared;
            DOLOS_CRASH_POINT(MasuBmtCoalesce);
        }
    }

    statBmtCycles += Cycles(charged) * params.macLatency;
    // One named crash point per charged level of the climb: power can
    // fail with any prefix of the window's node updates applied. All
    // tree state touched so far this drain is volatile (the leaf
    // update and root commit come later in secureWrite), so recovery
    // must rebuild from the persisted counters alone.
    for (unsigned lvl = 0; lvl < charged; ++lvl)
        DOLOS_CRASH_POINT(MasuBmtLevel);

    // The root is always updated last: a climb that coalesced its
    // upper levels onto an in-flight update completes no earlier
    // than that update does — the shared ancestors (and the root)
    // are applied by the joined climb's final stage.
    const Tick done =
        std::max(start + Cycles(charged) * params.macLatency,
                 joined_done);

    if (params.bmtPipeline) {
        bmtInflight.push_back({page_idx, start, done});
        if (bmtInflight.size() > bmtWindowClimbs)
            bmtInflight.erase(bmtInflight.begin());
    }
    return done;
}

SecureWriteResult
SecurityEngine::secureWrite(Addr addr, const Block &plaintext,
                            Tick arrival)
{
    DOLOS_PROF_SCOPE(SecurityEngine);
    DOLOS_ASSERT(params.map.isProtectedData(addr),
                 "write outside protected region: 0x%llx",
                 (unsigned long long)addr);
    const Addr page_idx = AddressMap::pageOf(addr);
    DOLOS_ASSERT(page_idx < params.functionalLeaves,
                 "page %llu beyond functional tree coverage",
                 (unsigned long long)page_idx);
    ++statWrites;

    const Tick start = std::max(arrival, busyUntil_);
    Tick t = fetchCounter(addr, start, true);
    statCtrFetchCycles += t - start;
    if (t > start)
        DOLOS_TRACE(trace::Stage::MasuCtrFetch, start, t, addr, 0);
    DOLOS_CRASH_POINT(MasuCtrFetch);

    const Addr cb_addr = AddressMap::counterBlockAddr(addr);
    const CounterPage old_page = counters.page(page_idx);
    const CounterBump bump = counters.increment(addr);
    SecureWriteResult res;
    res.pageReencrypted = bump.pageOverflow;
    if (bump.pageOverflow) {
        t = reencryptPage(page_idx, old_page, t);
        // The re-encryption just rewrote every sibling of the page
        // under the new counters; commit the new page state (tree
        // leaf, root register, shadow/stop-loss persistence) in the
        // same atomic step. Any later crash point would otherwise
        // leave stored siblings unreadable: recovery's re-drain only
        // rewrites the dumped address, never its page siblings.
        const Block npacked = counters.page(page_idx).pack();
        tree.updateLeaf(page_idx, npacked);
        rootStale = true;
        if (params.crashScheme == CrashScheme::Anubis)
            shadow.recordUpdate(ctrCache.slotOf(cb_addr), page_idx,
                                npacked, ++shadowSeq, t);
        else
            nvm_.write(cb_addr, npacked, t);
    }
    DOLOS_CRASH_POINT(MasuCtrBumped);

    // Counter-mode encryption: pad generation (AES) then XOR.
    const Tick crypto_start = t;
    t += params.aesLatency;
    statAesCycles += params.aesLatency;
    DOLOS_TRACE(trace::Stage::MasuAes, crypto_start, t, addr, 0);
    res.ciphertext = plaintext;
    applyPad(res.ciphertext, addr, bump.newCounter);
    res.counter = bump.newCounter;
    DOLOS_CRASH_POINT(MasuAesPad);

    // Data MAC + integrity-tree update: the configured number of
    // serial MAC operations (Table 1: 10 eager / 4 lazy). One MAC op
    // authenticates the data block; the remainder climb the BMT —
    // serially, or coalesced against the in-flight window when
    // bmtPipeline is on (chargeBmtClimb).
    const Tick mac_start = t;
    const Tick mac_end = t + params.macLatency;
    statMacCycles += params.macLatency;
    DOLOS_TRACE(trace::Stage::MasuMac, mac_start, mac_end, addr, 0);
    t = chargeBmtClimb(page_idx, mac_end);
    DOLOS_TRACE(trace::Stage::MasuBmt, mac_end, t, addr, 0);
    res.macTag = dataMac(addr, res.ciphertext, bump.newCounter);
    storeDataMac(addr, res.macTag);
    // The stored MAC now reflects the new ciphertext while the NVM
    // data block and ECC still hold the old write: recovery must
    // tolerate the mismatch because the dumped entry re-drains
    // (rewriting data, MAC, and ECC) before any demand read.
    DOLOS_CRASH_POINT(MasuMacStored);

    const Block packed = counters.page(page_idx).pack();
    tree.updateLeaf(page_idx, packed);

    // Keep the tree cache coherent with the updated path (the root
    // lives in the on-chip register, not the cache).
    Addr idx = page_idx;
    for (unsigned lvl = 1; lvl + 1 < tree.numLevels(); ++lvl) {
        idx /= MerkleTree::arity;
        const Addr node_addr = AddressMap::treeNodeAddr(lvl, idx);
        if (mtCache.contains(node_addr)) {
            mtCache.markDirty(node_addr);
        } else if (const auto ev = mtCache.insert(node_addr, true)) {
            evictTreeNode(*ev, t);
        }
    }

    // The DIMM's ECC bits, computed over the plaintext, travel with
    // every write (Osiris leans on them at recovery).
    storeEcc(addr, OsirisEcc::compute(plaintext));

    // --- atomic commit group: no crash point inside or after -------
    // The root-register flip and the crash scheme's persistence
    // record (Anubis shadow entry / Osiris stop-loss write-through)
    // must land together, and nothing may interrupt between here and
    // the controller's redo-log fill: a root register ahead of the
    // recoverable counters reads as tamper at reboot. The next
    // microstep is MasuRootCommit in the controller, fired only once
    // the redo record can replay this write. The flip fixes the
    // register's value; syncRootRegister reads it off the tree later.
    rootStale = true;
    if (params.crashScheme == CrashScheme::Anubis) {
        // Anubis: persist the shadow entry for this counter block.
        shadow.recordUpdate(ctrCache.slotOf(cb_addr), page_idx, packed,
                            ++shadowSeq, t);
    } else {
        // Osiris stop-loss: write the counter block through to NVM
        // every K-th update of a block (and always after a page
        // re-encryption, whose counter jump exceeds the stop-loss).
        if (bump.newCounter % params.osirisStopLoss == 0 ||
            bump.pageOverflow) {
            nvm_.write(cb_addr, packed, t);
        }
    }

    // Pipelined engines accept the next write one MAC-slot after
    // this write's metadata was ready; a serial engine is occupied
    // for the full latency. The BMT pipeline's per-level engines free
    // the front this way, and the lazy ToC scheme is pipelined by
    // construction: the paper assumes parallel AES-GCM engines
    // updating the tree levels concurrently (Phoenix / [22]).
    const bool piped = params.bmtPipeline ||
                       params.treePolicy == TreeUpdatePolicy::LazyToc;
    busyUntil_ = piped ? crypto_start + params.macLatency : t;

    // Opt-in background scrub: walk the stored metadata every N
    // secure writes, catching latent stuck-at cells while the
    // volatile truth still exists. Functional only — the pass models
    // an idle-cycle scrubber, not demand bandwidth.
    if (params.scrubIntervalWrites != 0 &&
        statWrites.value() % params.scrubIntervalWrites == 0)
        scrubMetadata();

    res.doneTick = t;
    statWriteLatency.sample(double(t - arrival));
    debugPrintf("MaSu", "write addr=0x%llx arrival=%llu done=%llu",
                (unsigned long long)addr, (unsigned long long)arrival,
                (unsigned long long)t);
    return res;
}

ReadResult
SecurityEngine::secureRead(Addr addr, Tick arrival)
{
    DOLOS_PROF_SCOPE(SecurityEngine);
    DOLOS_ASSERT(params.map.isProtectedData(addr),
                 "read outside protected region: 0x%llx",
                 (unsigned long long)addr);
    ++statReads;

    if (nvm_.isQuarantined(addr)) {
        // Known-destroyed block: degrade to poison (zeros) without
        // touching the media or re-raising an alarm.
        ++statQuarantineReads;
        const Tick t = arrival + nvm_.config().readLatency;
        statReadLatency.sample(double(t - arrival));
        return {zeroBlock(), t};
    }

    if (!nvm_.store().contains(addr)) {
        // Never written: cold memory reads as zeros, no MAC yet.
        ++statColdReads;
        const ReadResult r = nvm_.read(addr, arrival);
        statReadLatency.sample(double(r.completeTick - arrival));
        return {zeroBlock(), r.completeTick};
    }

    // Data fetch and counter fetch overlap; the pad is generated
    // while the data is in flight (counter-mode advantage), so only
    // the MAC verification and the XOR trail the data.
    ReadResult data = nvm_.read(addr, arrival);
    const bool media_error = nvm_.lastReadMediaError();
    const Tick ctr_ready = fetchCounter(addr, arrival, false);
    Tick t = std::max(data.completeTick, ctr_ready);
    t += params.macLatency + 1;

    // The counter fetch or the MAC load below may just have
    // discovered an unrecoverable metadata fault whose cascade covers
    // this very block: degrade to poison, never alarm.
    if (nvm_.isQuarantined(addr)) {
        ++statQuarantineReads;
        statReadLatency.sample(double(t - arrival));
        return {zeroBlock(), t};
    }

    const std::uint64_t counter = counters.counterOf(addr);
    const crypto::MacTag stored_mac = loadDataMacHealed(addr);
    if (nvm_.isQuarantined(addr)) {
        ++statQuarantineReads;
        statReadLatency.sample(double(t - arrival));
        return {zeroBlock(), t};
    }
    const bool mac_ok = dataMac(addr, data.data, counter) == stored_mac;

    // A failed MAC check has two very different causes. When the
    // device itself flagged the access, the cells are suspect: retry
    // with doubling backoff (a transient disturb error heals; a stuck
    // cell keeps failing and the block is retired). Only a mismatch
    // on a clean device read is attributed to an adversary.
    if (!mac_ok && media_error) {
        const MediaRetry m = nvm_.retry({true, false, t}, [&](Tick at) {
            data = nvm_.read(addr, at);
            return MediaAttempt{
                nvm_.lastReadMediaError(),
                dataMac(addr, data.data, counter) == stored_mac,
                data.completeTick + params.macLatency + 1};
        });
        t = m.done;
        if (m.failed) {
            nvm_.quarantine(addr,
                            "uncorrectable media fault (read retries "
                            "exhausted)",
                            m.retries);
            warn("data block 0x%llx quarantined after %u media "
                 "retries",
                 (unsigned long long)addr, m.retries);
            statReadLatency.sample(double(t - arrival));
            return {zeroBlock(), t};
        }
    } else if (!mac_ok) {
        ++statAttacks;
        warn("data block 0x%llx failed MAC verification",
             (unsigned long long)addr);
    }

    Block plaintext = data.data;
    applyPad(plaintext, addr, counter);

    statReadLatency.sample(double(t - arrival));
    return {plaintext, t};
}

Tick
SecurityEngine::writeCiphertext(Addr addr, const Block &ciphertext,
                                Tick now)
{
    MediaRetry m;
    const Tick done = nvm_.writeRetried(addr, ciphertext, now, m);
    if (m.failed) {
        nvm_.quarantine(addr,
                        "write failure persisted through retries",
                        m.retries);
        warn("data block 0x%llx quarantined after %u failed write "
             "retries",
             (unsigned long long)addr, m.retries);
    }
    return done;
}

void
SecurityEngine::recoverCountersOsiris(SecureRecoveryResult &res)
{
    // The persisted counter lags the true one by less than the
    // stop-loss K, so decrypting with candidates c0..c0+K-1 and
    // checking the plaintext's ECC pins the true counter.
    nvm_.store().walk(0, params.map.protectedBytes,
                      [&](Addr addr, const Block &ct) {
        if (nvm_.isQuarantined(addr))
            return;
        ++res.osirisProbed;
        const EccCode stored = loadEcc(addr);
        const std::uint64_t c0 = counters.counterOf(addr);
        bool recovered = false;
        for (unsigned k = 0; k < params.osirisStopLoss; ++k) {
            const std::uint64_t candidate = c0 + k;
            Block pt = ct;
            applyPad(pt, addr, candidate);
            if (OsirisEcc::check(pt, stored)) {
                if (k != 0) {
                    // Advance the page image to the probed counter.
                    CounterPage &page =
                        counters.page(AddressMap::pageOf(addr));
                    const unsigned idx = AddressMap::blockInPage(addr);
                    page.major = candidate / minorCounterLimit;
                    page.minors[idx] =
                        std::uint8_t(candidate % minorCounterLimit);
                    ++res.osirisAdvanced;
                }
                recovered = true;
                break;
            }
        }
        if (!recovered) {
            ++res.osirisUnrecovered;
            ++statAttacks;
            warn("Osiris could not recover counter for 0x%llx",
                 (unsigned long long)addr);
        }
    });
}

void
SecurityEngine::syncRootRegister() const
{
    if (rootStale) {
        rootRegister = tree.root();
        rootStale = false;
    }
}

void
SecurityEngine::crash()
{
    // The register is persistent; its committed value must be read
    // off the tree before the tree is lost.
    syncRootRegister();
    ctrCache.invalidateAll();
    mtCache.invalidateAll();
    counters.clear();
    tree.clear();
    busyUntil_ = 0;
    bmtInflight.clear();
    // rootRegister and shadowSeq are on-chip persistent registers.
}

SecureRecoveryResult
SecurityEngine::recover()
{
    // The rebuild below replaces the tree the register is read from.
    syncRootRegister();
    SecureRecoveryResult res;

    const auto tally = [&](FrameFate fate) {
        if (fate == FrameFate::Repaired) {
            ++res.counterBlocksRepaired;
            ++res.pagesRestored;
        } else {
            ++res.counterBlocksCascaded;
        }
    };

    // 1. Restore counters from the NVM counter region. Reads pass
    // through the media-fault model: a crash can land while metadata
    // frames are worn, and trusting a garbage image would poison the
    // tree rebuild. Persistent faults take the repair policy. A lost
    // page is unrecoverable only once every source is exhausted: the
    // NVM image, the trial-MAC rebuild, and the crash-consistency
    // scheme's own image (merged below). Until then its frame waits.
    std::vector<std::pair<Addr, unsigned>> pending;
    bool media_evidence = false;
    nvm_.store().walk(
        AddressMap::counterBase,
        AddressMap::counterBase + params.map.numPages() * blockSize,
        [&](Addr addr, const Block &) {
            MediaRetry m;
            const Block b = nvm_.readCheckedRetried(addr, m);
            media_evidence |= m.failed || m.retries;
            if (!m.failed) {
                counters.restorePage(AddressMap::pageOfCounterBlock(addr),
                                     CounterPage::unpack(b));
                ++res.pagesRestored;
            } else if (const FrameFate fate =
                           repairFrame(addr, m.retries, true);
                       fate == FrameFate::Pending) {
                pending.emplace_back(addr, m.retries);
            } else {
                tally(fate);
            }
        });

    // 2. Recover the counters that were dirty in the (lost) counter
    // cache, via the configured scheme.
    if (params.crashScheme == CrashScheme::Anubis) {
        // Merge Anubis shadow entries. Counters are monotonic, so
        // the componentwise-newest image wins; stale slots are
        // harmless.
        const ShadowScan scan = shadow.scan();
        res.shadowTamper = scan.tamperDetected;
        res.shadowMediaSkipped = scan.mediaSkippedSlots;
        if (scan.mediaSkippedSlots) {
            statShadowSlotsSkipped += scan.mediaSkippedSlots;
            media_evidence = true;
        }
        if (scan.tamperDetected)
            ++statAttacks;
        for (const auto &e : scan.entries) {
            if (!counters.hasPage(e.pageIdx)) {
                counters.restorePage(e.pageIdx, e.page);
                ++res.shadowApplied;
                continue;
            }
            CounterPage &cur = counters.page(e.pageIdx);
            const bool newer =
                e.page.major > cur.major ||
                (e.page.major == cur.major &&
                 [&] {
                     for (unsigned i = 0; i < 64; ++i)
                         if (e.page.minors[i] > cur.minors[i])
                             return true;
                     return false;
                 }());
            if (newer) {
                cur = e.page;
                ++res.shadowApplied;
            }
        }
    }
    // Pending frames settle on the page the merge supplied, or
    // cascade; Osiris probing then advances the surviving pages.
    for (const auto &[addr, retries] : pending)
        tally(settleFrame(addr, retries, true));
    if (params.crashScheme == CrashScheme::Osiris)
        recoverCountersOsiris(res);

    // 3. Rebuild the integrity tree and authenticate against the
    // eagerly-persisted on-chip root.
    tree.rebuild(counters.all());
    res.rootVerified = (tree.root() == rootRegister);

    if (!res.rootVerified && media_evidence) {
        // Media faults may have cost us the newest image of some
        // pages (a worn shadow slot, a rebuilt frame whose shadow
        // copy was newer). The data MACs pin each stored block's true
        // counter: sweep, repair mismatching pages by trial MAC, and
        // re-check. Without media evidence this path never runs — a
        // clean-boot root mismatch stays tamper.
        std::vector<Addr> pages; // ascending, as the walk is
        nvm_.store().walk(0, params.map.protectedBytes,
                          [&](Addr a, const Block &ct) {
            const Addr p = AddressMap::pageOf(a);
            if (!nvm_.isQuarantined(a) &&
                (pages.empty() || pages.back() != p) &&
                dataMac(a, ct, counters.counterOf(a)) != loadDataMac(a))
                pages.push_back(p);
        });
        for (const Addr p : pages) {
            const auto rebuilt = rebuildCounterPage(p);
            if (rebuilt) {
                counters.restorePage(p, *rebuilt);
                ++res.macPinnedRepairs;
            } else {
                cascadeQuarantine(AddressMap::counterBase + p * blockSize,
                                  0);
                ++res.counterBlocksCascaded;
            }
        }
        tree.rebuild(counters.all());
        res.rootVerified = (tree.root() == rootRegister);
        if (!res.rootVerified) {
            // Every surviving stored block is now MAC-consistent with
            // its counter; the residual mismatch is the bounded,
            // fully-reported wear loss (cascaded pages rebuild as
            // untouched). Re-anchor on the rebuilt root — alarming
            // here would turn every unrecoverable wear event into a
            // false tamper report.
            rootRegister = tree.root();
            res.rootReanchored = true;
            res.rootVerified = true;
            ++statRootReanchored;
            warn("integrity root re-anchored after media-faulted "
                 "recovery");
        }
    }

    if (!res.rootVerified)
        ++statAttacks;

    // 4. Write the recovered metadata back to NVM (as Anubis does),
    // so the persistent image is consistent again: stale counter
    // blocks and tree nodes would otherwise read as tampered later.
    for (const auto &[page_idx, page] : counters.all()) {
        nvm_.writeFunctional(
            AddressMap::counterBase + page_idx * blockSize,
            page.pack());
    }
    nvm_.store().walk(AddressMap::treeBase, AddressMap::shadowBase,
                      [&](Addr addr, const Block &) {
        const auto [level, idx] = AddressMap::treeNodeOf(addr);
        Block b{};
        const crypto::MacTag tag = tree.nodeTag(level, idx);
        std::memcpy(b.data(), tag.data(), tag.size());
        nvm_.writeFunctional(addr, b);
    });
    return res;
}

ScrubReport
SecurityEngine::scrubMetadata()
{
    ScrubReport rep;
    ++statScrubPasses;
    // Counter, MAC and tree frames are [counterBase, shadowBase).
    nvm_.store().walk(AddressMap::counterBase, AddressMap::shadowBase,
                      [&](Addr addr, const Block &) {
        if (nvm_.isQuarantined(addr))
            return;
        ++rep.blocksScanned;
        MediaRetry m;
        nvm_.readCheckedRetried(addr, m);
        if (!m.failed && !m.retries)
            return; // the device flagged nothing
        ++rep.faultsFound;
        // A transient disturb error is consumed by the retry and the
        // underlying cells are intact.
        if (m.failed &&
            repairFrame(addr, m.retries) != FrameFate::Repaired) {
            ++rep.cascaded;
            return;
        }
        ++rep.repaired;
        ++statScrubRepairs;
    });
    return rep;
}

persist::StateManifest
SecurityEngine::stateManifest() const
{
    // Snapshots read the register as committed.
    syncRootRegister();
    persist::StateManifest m("SecurityEngine");
    DOLOS_MF_CONST(m, params);
    DOLOS_MF_CONST(m, nvm_);
    DOLOS_MF_CONST(m, mac);
    DOLOS_MF_CONST(m, padGen);
    DOLOS_MF_DELEGATED_V(m, counters);
    DOLOS_MF_DELEGATED_V(m, tree);
    DOLOS_MF_DELEGATED_V(m, ctrCache);
    DOLOS_MF_DELEGATED_V(m, mtCache);
    DOLOS_MF_DELEGATED_P(m, shadow);
    DOLOS_MF_P(m, rootRegister);
    DOLOS_MF_V(m, rootStale);
    DOLOS_MF_P(m, shadowSeq);
    DOLOS_MF_V(m, busyUntil_);
    DOLOS_MF_V(m, bmtInflight);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statWrites);
    DOLOS_MF_P(m, statReads);
    DOLOS_MF_P(m, statAttacks);
    DOLOS_MF_P(m, statOverflows);
    DOLOS_MF_P(m, statColdReads);
    DOLOS_MF_P(m, statQuarantineReads);
    DOLOS_MF_P(m, statMetaMediaFaults);
    DOLOS_MF_P(m, statCounterBlocksRebuilt);
    DOLOS_MF_P(m, statTreeNodesRepaired);
    DOLOS_MF_P(m, statMacBlocksRebuilt);
    DOLOS_MF_P(m, statCascadedBlocks);
    DOLOS_MF_P(m, statShadowSlotsSkipped);
    DOLOS_MF_P(m, statRootReanchored);
    DOLOS_MF_P(m, statScrubPasses);
    DOLOS_MF_P(m, statScrubRepairs);
    DOLOS_MF_P(m, statCtrFetchCycles);
    DOLOS_MF_P(m, statAesCycles);
    DOLOS_MF_P(m, statMacCycles);
    DOLOS_MF_P(m, statBmtCycles);
    DOLOS_MF_P(m, statBmtCoalesced);
    DOLOS_MF_P(m, statTagPrefetchIssued);
    DOLOS_MF_P(m, statTagPrefetchHits);
    DOLOS_MF_P(m, statWriteLatency);
    DOLOS_MF_P(m, statReadLatency);
    DOLOS_MF_P(m, statTreeWalkLevels);
    return m;
}

void
SecurityEngine::collectStateManifests(
    std::vector<persist::StateManifest> &out) const
{
    out.push_back(stateManifest());
    out.push_back(counters.stateManifest());
    out.push_back(tree.stateManifest());
    ctrCache.collectStateManifests(out, "ctrCache");
    mtCache.collectStateManifests(out, "mtCache");
    out.push_back(shadow.stateManifest());
}

} // namespace dolos
