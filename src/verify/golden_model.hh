/**
 * @file
 * In-order golden reference machine for differential verification.
 *
 * The GoldenModel attaches to a SimpleCore as a CoreObserver and
 * mirrors every architectural memory operation in a byte-exact
 * reference memory, kept per 64-byte block, that also tracks
 * *persistence* state. From the program-order stream of stores,
 * CLWBs and SFENCEs it derives, per byte, the committed-prefix
 * contract the paper's recovery guarantee promises (PAPER.md §5):
 *
 *  - committed: the byte was covered by a CLWB whose SFENCE
 *    completed. After any crash it must read back exactly.
 *  - in-flight: stored, but the last store was not known-persisted
 *    at the crash. After a crash it may read as any value the byte
 *    held since its last committed snapshot (an eviction may have
 *    pushed any of them into the persistence domain), but nothing
 *    else — never garbage, never a pre-committed value.
 *  - untouched: never stored; reads as zero.
 *
 * During normal operation every load is checked byte-exactly against
 * the reference (the machine is coherent); after a crash, the first
 * load of an in-flight byte must fall inside its admissible set and
 * pins the byte from then on. Any disagreement is recorded as a
 * violation with a diagnostic; the DiffOracle turns the record into
 * a verdict.
 */

#ifndef DOLOS_VERIFY_GOLDEN_MODEL_HH
#define DOLOS_VERIFY_GOLDEN_MODEL_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "mem/block.hh"

namespace dolos::verify
{

/** Persistence classification of one tracked byte. */
enum class ByteClass
{
    Untouched, ///< never stored; must read zero
    Committed, ///< durable value known exactly
    InFlight,  ///< value within a known admissible set
};

/** Byte counts per class in one tracked block. */
struct BlockCensus
{
    unsigned committed = 0;
    unsigned inFlight = 0;
    unsigned untouched = 0;
};

/** The reference machine. */
class GoldenModel : public CoreObserver
{
  public:
    /** @{ CoreObserver: mirror the architectural operation stream. */
    void onLoad(Addr addr, const void *data, unsigned size) override;
    void onStore(Addr addr, const void *data, unsigned size) override;
    void onClwb(Addr addr) override;
    void onSfence() override;
    void onCrash() override;
    void onBlockLost(Addr addr) override;
    /** @} */

    /** Classification of @p addr right now. */
    ByteClass classify(Addr addr) const;

    /** classify() of every byte of the block at @p block, counted. */
    BlockCensus census(Addr block) const;

    /** Block-aligned addresses of every block ever stored to. */
    std::vector<Addr> trackedBlocks() const;

    /** Loads checked against the reference so far. */
    std::uint64_t checkedLoads() const { return checkedLoads_; }

    /** Mismatches between the machine and the reference. */
    std::uint64_t violationCount() const { return violations_; }

    /** First few violation diagnostics (capped). */
    const std::vector<std::string> &diagnostics() const
    {
        return diagnostics_;
    }

    bool clean() const { return violations_ == 0; }

    /** Crashes observed (admissible-set forks). */
    unsigned crashesSeen() const { return crashes_; }

  private:
    /** Some bytes of one block, as one store (or a floor) left them. */
    struct BlockImage
    {
        std::uint64_t seq = 0;  ///< program-order stamp of the store
        std::uint64_t mask = 0; ///< bit i: byte i belongs to the image
        Block bytes{};
    };

    /**
     * One block of reference memory. Bit i of each mask is byte i.
     * `stores` holds every store since a byte's durable floor, oldest
     * first. While a byte is ambiguous (its durable value forked at a
     * crash), its admissible values are the byte of every
     * `admissible` image whose mask covers it, in the order they
     * became admissible.
     */
    struct BlockState
    {
        Block floor{};   ///< durable value of each non-ambiguous byte
        Block current{}; ///< value a coherent load observes (0 if unwritten)
        std::uint64_t written = 0;   ///< ever stored
        std::uint64_t pending = 0;   ///< covered by some entry of stores
        std::uint64_t ambiguous = 0; ///< forked by a crash, not pinned
        std::vector<BlockImage> stores;
        std::vector<BlockImage> admissible;

        /** Ambiguous bytes with no store since: the in-flight class. */
        std::uint64_t inFlight() const { return ambiguous & ~pending; }
    };

    /** Commit @p b's stores stamped at or before @p snap. */
    static void commitThrough(BlockState &b, std::uint64_t snap);

    /** The bytes in @p settled are no longer ambiguous. */
    static void settle(BlockState &b, std::uint64_t settled);

    /** Adjudicate a load of @p n bytes at offset @p off of @p b. */
    void checkLoad(BlockState &b, Addr addr, unsigned off,
                   const std::uint8_t *bytes, unsigned n);

    void recordViolation(Addr addr, std::uint8_t observed,
                         const BlockState *b);

    std::map<Addr, BlockState> blocks; ///< keyed by block base
    /** (block, seq at CLWB) since the last SFENCE, in CLWB order. */
    std::vector<std::pair<Addr, std::uint64_t>> flushSnaps;
    std::uint64_t seq = 0;
    std::uint64_t checkedLoads_ = 0;
    std::uint64_t violations_ = 0;
    unsigned crashes_ = 0;
    std::vector<std::string> diagnostics_;
};

} // namespace dolos::verify

#endif // DOLOS_VERIFY_GOLDEN_MODEL_HH
