/**
 * @file
 * The memory-backend security engine.
 *
 * This is the machinery every secure-NVM controller in the paper
 * shares: counter-mode AES encryption with split counters, per-block
 * data MACs (Bonsai-style), an integrity tree over the counters, a
 * counter cache and tree cache, Anubis shadow-table crash
 * consistency, and an eagerly-persisted on-chip root register.
 *
 * The baseline controller (Pre-WPQ-Secure) runs this engine *before*
 * WPQ insertion — inside the persist-ack critical path. Dolos runs
 * the same engine as the Major Security Unit (Ma-SU) *after* the WPQ.
 *
 * Functional behaviour is real: ciphertext/MACs are computed with
 * real keys; tamper, replay and relocation of NVM content are
 * genuinely detected. Timing follows Table 1 and is composed from
 * configured latencies (the engine is a serial FIFO server).
 */

#ifndef DOLOS_SECURE_SECURITY_ENGINE_HH
#define DOLOS_SECURE_SECURITY_ENGINE_HH

#include <optional>
#include <vector>

#include "crypto/ctr_pad.hh"
#include "crypto/mac_engine.hh"
#include "mem/nvm_device.hh"
#include "mem/tag_array.hh"
#include "secure/address_map.hh"
#include "secure/anubis.hh"
#include "secure/counters.hh"
#include "secure/merkle_tree.hh"
#include "sim/persist_annotations.hh"
#include "sim/stats.hh"

namespace dolos
{

/** Geometry of a metadata cache (Table 1 defaults in SecureParams). */
struct MetaCacheParams
{
    std::string name = "metaCache";
    std::uint64_t sizeBytes = 128 * 1024;
    unsigned assoc = 4;
};

/**
 * The counter or tree cache. Its contents are the engine's volatile
 * metadata structures, so it tracks only presence and dirtiness; the
 * engine fetches and writes back the blocks whose addresses it
 * reports.
 */
class MetaCache
{
  public:
    explicit MetaCache(const MetaCacheParams &params);

    /** True (and LRU-touch) if @p addr is cached; counts the lookup. */
    bool lookup(Addr addr);

    /** Presence check without LRU side effects. */
    bool contains(Addr addr) const { return tags.find(addr) != nullptr; }

    /**
     * Insert @p addr (must not be present). If a dirty victim is
     * displaced, its address is returned for the caller to write back.
     */
    std::optional<Addr> insert(Addr addr, bool dirty);

    /** Mark a present entry dirty (no-op when absent). */
    void markDirty(Addr addr);

    /**
     * Line index of a present entry, used by Anubis to mirror the
     * cache geometry in its shadow table.
     */
    std::size_t slotOf(Addr addr) const { return tags.slotOf(addr); }

    /** Total number of lines (sets x ways). */
    std::size_t numSlots() const { return tags.numSlots(); }

    /** Drop everything (crash). */
    void invalidateAll() { tags.reset([](const TagArray::Line &) {}); }

    std::uint64_t hits() const { return statHits.value(); }
    std::uint64_t misses() const { return statMisses.value(); }
    stats::StatGroup &statGroup() { return stats_; }

    /** Append this cache's crash-state manifest and its tag array's. */
    void collectStateManifests(std::vector<persist::StateManifest> &out,
                               const std::string &instance) const;

  private:
    persist::StateManifest stateManifest(std::string instance) const;

    TagArray tags;

    stats::StatGroup stats_;
    stats::Scalar statHits;
    stats::Scalar statMisses;
    stats::Scalar statDirtyEv;
};

/** Integrity-tree timing policy (paper Table 1). */
enum class TreeUpdatePolicy
{
    EagerMerkle, ///< AGIT/Anubis: 10 serial MAC ops per write
    LazyToc,     ///< Phoenix: 4 serial MAC ops per write
};

/** Counter crash-consistency scheme (paper §4.4 / §6). */
enum class CrashScheme
{
    /**
     * Anubis: a shadow-table entry is persisted per metadata update;
     * recovery scans the (small) shadow region.
     */
    Anubis,

    /**
     * Osiris: counters are written through every stop-loss-K updates
     * and recovered by probing candidate counters against the ECC
     * stored with each ciphertext; recovery walks all of data.
     */
    Osiris,
};

/** Security engine configuration (Table 1 defaults). */
struct SecureParams
{
    AddressMap map;
    Cycles aesLatency = 40;
    Cycles macLatency = 160;
    unsigned macOpsEagerWrite = 10;
    unsigned macOpsLazyWrite = 4;

    /**
     * BMT update pipeline (Freij et al. [10] style): the engine keeps
     * a small window of in-flight root-path updates and, when a new
     * write's tree path shares ancestors with one of them, only the
     * non-shared levels are charged — the shared upper levels (and
     * the root, which is always updated last) coalesce onto the
     * in-flight update. The per-level engines also free the engine
     * front: a new write may enter one MAC slot after the previous
     * write's metadata was ready, instead of after its full serial
     * latency. This is the one backend-pipelining setting; the paper's
     * baseline and Ma-SU serialize updates ("all levels are updated
     * serially, similar to prior work"), and bench/ablation_pipeline
     * sweeps it. Timing-only: the functional tree/root update is
     * unchanged. Default on (survived the microstep crash sweeps;
     * `--opt-knobs none` restores the paper's serial Ma-SU).
     */
    bool bmtPipeline = true;

    /** In-flight root-path updates tracked when bmtPipeline is on. */
    unsigned bmtPipelineWindow = 4;

    /** Counter crash-consistency mechanism. */
    CrashScheme crashScheme = CrashScheme::Anubis;

    /** Osiris stop-loss: counter write-through every K updates. */
    unsigned osirisStopLoss = 4;

    /**
     * Counter repair: when a counter block is lost to an unhealable
     * media fault, the page is reconstructed Osiris/Phoenix-style by
     * trial-MACing each covered ciphertext against its stored data
     * MAC over candidate counters [0, counterSearchLimit). Blocks
     * whose true counter exceeds the limit are unrecoverable (the
     * cascade quarantine engages).
     */
    std::uint64_t counterSearchLimit = 4096;

    /**
     * Background scrub: every N secure writes, walk the stored
     * metadata blocks through the media-fault model and repair what
     * the device flags — catching latent stuck-at cells while the
     * volatile truth still exists, before a crash makes them fatal.
     * 0 disables scrubbing.
     */
    unsigned scrubIntervalWrites = 0;

    /**
     * Test-only planted bug (torture's --expect-bug meta-test): the
     * counter-repair path adopts the corrupted NVM image instead of
     * reconstructing from data MACs. Never enable outside tests.
     */
    bool plantCounterRepairBug = false;

    TreeUpdatePolicy treePolicy = TreeUpdatePolicy::EagerMerkle;
    MetaCacheParams counterCache{"counterCache", 128 * 1024, 4};
    MetaCacheParams mtCache{"mtCache", 256 * 1024, 8};
    /** A constant, not a setting (see crypto::makeMacEngine). */
    static constexpr crypto::MacKind macKind = crypto::MacKind::SipHash24;
    crypto::AesKey dataKey{};
    std::array<std::uint8_t, 16> macKey{};

    /**
     * Functional tree coverage. The paper protects 16 GB (which
     * fixes the 10-MAC eager update cost used for timing); the
     * functional tree needs to cover only the heap the workloads
     * actually touch.
     */
    Addr functionalLeaves = 1 << 16; ///< 64K pages = 256 MB
};

/** Result of a security-processed write. */
struct SecureWriteResult
{
    Block ciphertext{};
    crypto::MacTag macTag{};      ///< data MAC written alongside
    std::uint64_t counter = 0;    ///< encryption counter used
    Tick doneTick = 0;            ///< security ops complete
    bool pageReencrypted = false; ///< minor-counter overflow handled
};

/** Result of crash recovery. */
struct SecureRecoveryResult
{
    bool rootVerified = false;  ///< rebuilt root matches register
    bool shadowTamper = false;  ///< a shadow entry failed its MAC
    std::size_t pagesRestored = 0;
    std::size_t shadowApplied = 0;   ///< Anubis: entries merged
    std::size_t osirisProbed = 0;    ///< Osiris: blocks probed
    std::size_t osirisAdvanced = 0;  ///< Osiris: counters corrected
    std::size_t osirisUnrecovered = 0; ///< no candidate matched ECC

    std::size_t shadowMediaSkipped = 0; ///< worn slots skipped, no alarm
    std::size_t counterBlocksRepaired = 0; ///< media faults repaired
    std::size_t counterBlocksCascaded = 0; ///< unrecoverable, cascaded
    std::size_t macPinnedRepairs = 0; ///< pages fixed by the MAC sweep

    /**
     * The rebuilt root mismatched the persistent register, but the
     * boot saw device-flagged media faults and the MAC-pinned repair
     * sweep reconciled every stored block — the platform re-anchors
     * on the rebuilt root (bounded, reported wear loss) instead of
     * alarming. Never set on a clean boot: a mismatch without media
     * evidence is tamper.
     */
    bool rootReanchored = false;
};

/** Outcome of one background metadata scrub pass. */
struct ScrubReport
{
    std::size_t blocksScanned = 0;
    std::size_t faultsFound = 0;  ///< device-flagged reads seen
    std::size_t repaired = 0;     ///< rewritten from on-chip state
    std::size_t cascaded = 0;     ///< unrecoverable: quarantine engaged
};

/**
 * The security engine; a serial FIFO server for write-side crypto,
 * with a fully functional secure-memory state.
 */
class SecurityEngine
{
  public:
    SecurityEngine(const SecureParams &params, NvmDevice &nvm);

    // Neither copyable nor movable: the tree, the shadow and the Mi-SU
    // hold references to mac.
    SecurityEngine(const SecurityEngine &) = delete;
    SecurityEngine &operator=(const SecurityEngine &) = delete;

    /**
     * Process one write's security work: fetch/bump counter, pad,
     * encrypt, data MAC, tree update, Anubis shadow persist.
     *
     * The engine is busy from max(arrival, previous completion)
     * until the returned doneTick. The ciphertext's NVM write is the
     * caller's responsibility (controllers differ on when it
     * happens); the MAC block and metadata writes are posted here.
     */
    SecureWriteResult secureWrite(Addr addr, const Block &plaintext,
                                  Tick arrival);

    /**
     * Process one read: NVM data fetch, counter fetch (+ tree walk
     * on miss), MAC verification, decryption.
     */
    ReadResult secureRead(Addr addr, Tick arrival);

    /** Post the ciphertext of a completed secureWrite to NVM. */
    Tick writeCiphertext(Addr addr, const Block &ciphertext, Tick now);

    /** Drop all volatile state (power failure). */
    void crash();

    /**
     * Rebuild counters from NVM + shadow, rebuild the tree, verify
     * against the persistent root register.
     */
    SecureRecoveryResult recover();

    /** Earliest tick the (serial) write engine frees up. */
    Tick busyUntil() const { return busyUntil_; }

    /** True if any integrity check ever failed (attack detected). */
    bool attackDetected() const { return statAttacks.value() != 0; }
    std::uint64_t attacksDetected() const { return statAttacks.value(); }

    /**
     * Record an integrity failure detected outside the engine proper
     * (e.g. Mi-SU dump authentication in the controller), so that
     * attackDetected() reflects every verification the platform runs.
     */
    void noteAttack(const char *what);

    /** Current (volatile) counter of a block — test/inspection. */
    std::uint64_t counterOf(Addr addr) const
    {
        return counters.counterOf(addr);
    }

    /** On-chip persistent root register. */
    crypto::MacTag
    persistentRoot() const
    {
        syncRootRegister();
        return rootRegister;
    }

    const SecureParams &config() const { return params; }
    const crypto::MacEngine &macEngine() const { return mac; }
    NvmDevice &nvm() { return nvm_; }
    stats::StatGroup &statGroup() { return stats_; }

    std::uint64_t counterCacheHits() const { return ctrCache.hits(); }
    std::uint64_t counterCacheMisses() const { return ctrCache.misses(); }

    /** Reads served as poison from quarantined blocks. */
    std::uint64_t quarantineReads() const
    {
        return statQuarantineReads.value();
    }

    /** Metadata repair outcomes (damage-report breakdown). */
    std::uint64_t metaMediaFaults() const
    {
        return statMetaMediaFaults.value();
    }
    std::uint64_t counterBlocksRebuilt() const
    {
        return statCounterBlocksRebuilt.value();
    }
    std::uint64_t treeNodesRepaired() const
    {
        return statTreeNodesRepaired.value();
    }
    std::uint64_t macBlocksRebuilt() const
    {
        return statMacBlocksRebuilt.value();
    }
    std::uint64_t cascadedBlocks() const
    {
        return statCascadedBlocks.value();
    }
    std::uint64_t shadowSlotsSkipped() const
    {
        return statShadowSlotsSkipped.value();
    }
    std::uint64_t rootReanchors() const
    {
        return statRootReanchored.value();
    }
    std::uint64_t scrubPasses() const { return statScrubPasses.value(); }
    std::uint64_t scrubRepairs() const { return statScrubRepairs.value(); }

    /**
     * One background scrub pass: walk every stored counter / tree /
     * MAC metadata block that is not quarantined through the device's
     * media-fault model and route any frame that fails its retries
     * into the repair policy (repairFrame). Runs automatically every
     * scrubIntervalWrites secure writes when that knob is nonzero;
     * callable directly for tests and tools. Functional only — scrub
     * bandwidth is not timed.
     */
    ScrubReport scrubMetadata();

    /** Per-stage write-path cycle attribution (stats JSON breakdown). */
    std::uint64_t ctrFetchCycles() const { return statCtrFetchCycles.value(); }
    std::uint64_t aesCycles() const { return statAesCycles.value(); }
    std::uint64_t macCycles() const { return statMacCycles.value(); }
    std::uint64_t bmtCycles() const { return statBmtCycles.value(); }

    /** Tree levels coalesced by the bmtPipeline lever. */
    std::uint64_t bmtCoalescedUpdates() const
    {
        return statBmtCoalesced.value();
    }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

    /** Append this manifest plus every sub-component's to @p out. */
    void collectStateManifests(
        std::vector<persist::StateManifest> &out) const;

  private:
    /** MAC ops per write under the configured tree policy. */
    unsigned writeMacOps() const;

    /**
     * One in-flight BMT root-path update (bmtPipeline). The path is
     * identified by the leaf (counter page) index; ancestors at
     * timing level L are pageIdx >> (3*L) (8-ary tree, Table 1).
     */
    struct BmtInflight
    {
        Addr pageIdx = 0; ///< leaf whose path is being climbed
        Tick start = 0;   ///< first level-update began
        Tick done = 0;    ///< root update (last level) completes

        friend void
        dolosDescribeValue(std::ostream &os, const BmtInflight &e)
        {
            os << "{page:" << e.pageIdx << ",start:" << e.start
               << ",done:" << e.done << "}";
        }
    };

    /**
     * Charge the BMT climb for a write to @p page_idx starting at
     * @p start: with bmtPipeline off, the full writeMacOps()-1 serial
     * levels; with it on, shared ancestor levels coalesce onto the
     * in-flight window and only the distinct lower levels are
     * charged. Returns the tick the root update completes and
     * maintains the window + statBmtCoalesced.
     */
    Tick chargeBmtClimb(Addr page_idx, Tick start);

    /**
     * Ensure the counter block covering @p addr is usable: counter
     * cache hit or verified fetch from NVM (with tree walk).
     *
     * @return tick when the counter is available.
     */
    Tick fetchCounter(Addr addr, Tick start, bool for_write);

    /**
     * Read the last commit group's root off the tree into the root
     * register. A commit only marks the register stale. Every leaf
     * update reaches its commit group before any crash point or
     * register read, so the tree's root is the committed value
     * whenever the register is read.
     */
    void syncRootRegister() const;

    /** Verify an NVM-fetched counter page against the trusted tree. */
    void verifyFetchedPage(Addr page_idx, const CounterPage &page);

    /** Handle a dirty counter-cache eviction (posted NVM write). */
    void evictCounterBlock(Addr counter_block_addr, Tick now);

    /** Handle a dirty tree-cache eviction (posted NVM write). */
    void evictTreeNode(Addr node_addr, Tick now);

    /** Whole-page re-encryption after a minor-counter overflow. */
    Tick reencryptPage(Addr page_idx, const CounterPage &old_page,
                       Tick start);

    /** Write a data MAC into its packed NVM MAC block (functional). */
    void storeDataMac(Addr addr, const crypto::MacTag &tag);

    /** Store / load a block's Osiris ECC code (functional). */
    void storeEcc(Addr addr, std::uint16_t code);
    std::uint16_t loadEcc(Addr addr) const;

    /** Osiris recovery: probe candidate counters for all of data. */
    void recoverCountersOsiris(SecureRecoveryResult &res);

    /** Read a data MAC from the packed NVM MAC block. */
    crypto::MacTag loadDataMac(Addr addr) const;

    /**
     * Read a data MAC through the media-fault model, retrying and —
     * if the fault persists — rebuilding the MAC block from
     * ciphertext + counters (or cascading if no spare frame is
     * left). Returns the tag after any repair.
     */
    crypto::MacTag loadDataMacHealed(Addr addr);

    /** How repairFrame left a metadata frame. */
    enum class FrameFate
    {
        /// Rewritten from on-chip state, onto a spare row or, with
        /// none left, behind a quarantined frame.
        Repaired,
        Cascaded, ///< content lost: frame and covered data quarantined
        Pending,  ///< recovery scan: no page image (yet)
    };

    /**
     * The one metadata-repair policy. A counter, tree or MAC frame
     * (by AddressMap::regionOf) failed its media retries: rebuild its
     * content (a counter page with no on-chip copy by trial MAC), then
     * settleFrame. With @p recovering, a counter page that cannot be
     * rebuilt stays Pending: the crash scheme may still supply it.
     */
    FrameFate repairFrame(Addr frame, unsigned retries,
                          bool recovering = false);

    /**
     * Remap @p frame to a spare row and rewrite it from on-chip state,
     * counting the repair. With no spare left the frame is
     * quarantined, and so is the data it covers when its content has
     * no on-chip home (a MAC frame). A counter frame with no page
     * image cascades.
     */
    FrameFate settleFrame(Addr frame, unsigned retries, bool recovering);

    /**
     * Reconstruct a counter page with no volatile copy: for each
     * covered stored data block, search candidate counters
     * [0, counterSearchLimit) for the one whose data MAC matches
     * the stored MAC lane. Returns the page, or nullopt when any
     * covered block fails the search or the majors disagree.
     */
    std::optional<CounterPage> rebuildCounterPage(Addr page_idx);

    /**
     * Quarantine a lost counter or MAC frame and every stored data
     * block it covered, with the frame as the blocks' cause.
     */
    void cascadeQuarantine(Addr frame, unsigned retries);

    /** Data MAC input: ciphertext, counter, address. */
    crypto::MacTag dataMac(Addr addr, const Block &ciphertext,
                           std::uint64_t counter) const;

    /**
     * XOR the counter-mode pad of (@p addr, @p counter) into @p data:
     * encrypts plaintext, decrypts ciphertext.
     */
    void applyPad(Block &data, Addr addr, std::uint64_t counter) const;

    SecureParams params;
    NvmDevice &nvm_;
    crypto::MacEngine mac;
    crypto::CtrPadGenerator padGen;

    CounterStore counters;
    MerkleTree tree;
    MetaCache ctrCache;
    MetaCache mtCache;
    AnubisShadow shadow;

    mutable crypto::MacTag rootRegister{}; ///< on-chip persistent
    /// The register awaits the last commit's root (syncRootRegister).
    mutable bool rootStale = false;
    std::uint64_t shadowSeq = 0;      ///< on-chip persistent
    Tick busyUntil_ = 0;

    /** In-flight BMT root-path updates (bmtPipeline; volatile). */
    std::vector<BmtInflight> bmtInflight;

    stats::StatGroup stats_;
    stats::Scalar statWrites;
    stats::Scalar statReads;
    stats::Scalar statAttacks;
    stats::Scalar statOverflows;
    stats::Scalar statColdReads;
    stats::Scalar statQuarantineReads;
    stats::Scalar statMetaMediaFaults;
    stats::Scalar statCounterBlocksRebuilt;
    stats::Scalar statTreeNodesRepaired;
    stats::Scalar statMacBlocksRebuilt;
    stats::Scalar statCascadedBlocks;
    stats::Scalar statShadowSlotsSkipped;
    stats::Scalar statRootReanchored;
    stats::Scalar statScrubPasses;
    stats::Scalar statScrubRepairs;
    stats::Scalar statCtrFetchCycles;
    stats::Scalar statAesCycles;
    stats::Scalar statMacCycles;
    stats::Scalar statBmtCycles;
    stats::Scalar statBmtCoalesced;
    /** Always 0: tag prefetch is retired; perfbench reads the names. */
    stats::Scalar statTagPrefetchIssued;
    stats::Scalar statTagPrefetchHits;
    stats::Average statWriteLatency;
    stats::Average statReadLatency;
    stats::Average statTreeWalkLevels;
};

} // namespace dolos

#endif // DOLOS_SECURE_SECURITY_ENGINE_HH
