/**
 * @file
 * DDR-based PCM NVM device model (paper Table 1).
 *
 * Timing: per-bank FIFO service with read latency 150 ns (600 cycles)
 * and write latency 500 ns (2000 cycles) at the 4 GHz core clock.
 * Banks are address-interleaved at block granularity, so independent
 * accesses overlap while same-bank accesses serialize — the WPQ drain
 * rate is then bounded by either the security unit or bank pressure,
 * as in the paper. Functionally, the device stores what secure
 * controllers give it: ciphertext and metadata.
 */

#ifndef DOLOS_MEM_NVM_DEVICE_HH
#define DOLOS_MEM_NVM_DEVICE_HH

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/block.hh"
#include "mem/mem_iface.hh"
#include "sim/persist_annotations.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dolos
{

/** NVM device configuration. */
struct NvmParams
{
    Cycles readLatency = 600;   ///< 150 ns @ 4 GHz
    Cycles writeLatency = 2000; ///< 500 ns @ 4 GHz
    unsigned numBanks = 8;      ///< block-interleaved banks

    /**
     * Read-priority scheduling: demand reads are serviced ahead of
     * buffered writes (reads serialize only against other reads on
     * the same bank). Posted writes still serialize per bank, which
     * is what bounds the WPQ drain rate. Disable to model a strict
     * per-bank FIFO.
     */
    bool readPriority = true;

    /**
     * Spare rows the device can remap a worn block frame onto. A
     * successful remap clears the frame's media faults (the
     * controller then rewrites the repaired contents); once spares
     * run out, an unhealable metadata fault must cascade into
     * quarantine instead.
     */
    unsigned spareBlocks = 32;

    /**
     * Media-retry policy: an access the device flags as faulty is
     * reissued up to mediaRetryLimit times, the k-th retry at the
     * previous attempt's completion plus mediaRetryBackoff << (k-1).
     * Only then does the caller repair or quarantine the block.
     */
    unsigned mediaRetryLimit = 3;
    Cycles mediaRetryBackoff = 300; ///< first retry delay; doubles
};

/** One attempt of an access under the media-retry policy. */
struct MediaAttempt
{
    bool flagged = false;  ///< the device reported a media fault
    bool accepted = false; ///< the result is usable as it stands
    Tick done = 0;         ///< when the attempt (and its check) ended
};

/** What the media-retry policy did to one access. */
struct MediaRetry
{
    unsigned retries = 0; ///< reissues after the first attempt
    bool failed = false;  ///< the last attempt was still not accepted
    bool flagged = false; ///< the device flagged the last attempt
    Tick done = 0;        ///< when the last attempt ended
};

/** One quarantined (unrecoverable) block and why it was retired. */
struct QuarantineRecord
{
    Addr addr = 0;
    std::string reason;
    unsigned retries = 0; ///< correction attempts before giving up

    /**
     * Cascade provenance: which metadata block's loss retired this
     * block (e.g. "mac_block_0x..."), empty for a direct media fault.
     */
    std::string cause;
};

inline void
dolosDescribeValue(std::ostream &os, const QuarantineRecord &r)
{
    os << r.addr << "/\"" << r.reason << "\"/" << r.retries << "/\""
       << r.cause << '"';
}

/** One block frame remapped onto a spare row. */
struct RemapRecord
{
    Addr addr = 0;
    std::string reason;
};

inline void
dolosDescribeValue(std::ostream &os, const RemapRecord &r)
{
    os << r.addr << "/\"" << r.reason << '"';
}

/**
 * The NVM module: functional persistent store + bank timing.
 *
 * The device also models *media* faults — cell wear and disturb
 * errors the DIMM's own ECC detects but cannot always correct:
 * one-shot transient read flips, persistent stuck-at cells, and
 * dropped writes. Faults perturb only the timed demand paths
 * (read()/write()); functional accesses see the raw array, which is
 * what the crash-dump drain and test fixtures rely on. After each
 * timed access lastReadMediaError()/lastWriteMediaError() reports
 * whether the device detected a fault — the controller uses that flag
 * to tell a correctable media error (retry) from tamper (alarm),
 * because an adversary mutating the array functionally leaves no
 * such trace.
 */
class NvmDevice
{
  public:
    explicit NvmDevice(const NvmParams &params);

    /** Timed functional read of one block. */
    ReadResult read(Addr addr, Tick now);

    /**
     * Timed functional write of one block.
     *
     * @return tick at which the write has been committed to the
     *         persistent cell array.
     */
    Tick write(Addr addr, const Block &data, Tick now);

    /**
     * Functional-only write, free of timing (used by the ADR crash
     * drain, whose energy is accounted separately, and by test
     * fixtures preparing NVM images).
     */
    void writeFunctional(Addr addr, const Block &data);

    /** Functional-only read. */
    Block readFunctional(Addr addr) const;

    /**
     * Functional read that still passes through the media-fault model
     * and sets lastReadMediaError(). Recovery and scrub paths use it:
     * they are not timed, but must see (and get to disambiguate) the
     * same cell wear a demand read would.
     */
    Block readFunctionalChecked(Addr addr);

    // --- media-retry policy ------------------------------------------
    //
    // The one implementation of the retry loop. Each method reports
    // the retries and whether the fault outlived them in @p out, and
    // counts them in nvm.mediaRetries / nvm.mediaHealed; repairing or
    // quarantining a failed block is the caller's decision.

    /** read() under the media-retry policy. */
    ReadResult readRetried(Addr addr, Tick now, MediaRetry &out);

    /** readFunctionalChecked() under the media-retry policy. */
    Block readCheckedRetried(Addr addr, MediaRetry &out);

    /** write() under the media-retry policy. */
    Tick writeRetried(Addr addr, const Block &data, Tick now,
                      MediaRetry &out);

    /**
     * The policy for an access whose content the caller judges: given
     * the @p first attempt, while an attempt is flagged and not
     * accepted, call @p again with the retry's issue tick.
     */
    MediaRetry retry(const MediaAttempt &first,
                     const std::function<MediaAttempt(Tick)> &again);

    /** Earliest tick at which the bank holding @p addr is free. */
    Tick bankFreeAt(Addr addr) const;

    /**
     * Power failure: the cell array and the physical media-fault
     * state (wear is in the cells, not in the controller) survive;
     * bank scheduling state and the last-access fault flags are
     * volatile controller-side registers and reset.
     */
    void crash();

    /**
     * Register every member into the crash-state manifest. The cell
     * array (data_) is delegated to BackingStore::stateManifest,
     * whose snapshot takes the region-exclusion predicate.
     */
    persist::StateManifest stateManifest() const;

    /** Direct access to the persistent image (crash snapshots). */
    BackingStore &store() { return data_; }
    const BackingStore &store() const { return data_; }

    const NvmParams &config() const { return params; }
    stats::StatGroup &statGroup() { return stats_; }

    std::uint64_t reads() const { return statReads.value(); }
    std::uint64_t writes() const { return statWrites.value(); }

    // --- media-fault model -------------------------------------------

    /** Arm a one-shot bit flip on the next timed read of @p addr. */
    void injectTransientFlip(Addr addr, unsigned bit);

    /**
     * Pin bit @p bit of @p addr to @p value on every timed read (a
     * worn-out cell). Persists until the block is quarantined.
     */
    void injectStuckBit(Addr addr, unsigned bit, bool value);

    /** Make the next @p count timed writes to @p addr fail silently
     *  (the array keeps its old contents; the device flags it). */
    void injectWriteFail(Addr addr, unsigned count);

    /** Device-detected fault on the most recent timed read/write. */
    bool lastReadMediaError() const { return lastReadMediaError_; }
    bool lastWriteMediaError() const { return lastWriteMediaError_; }

    /** Retire @p addr: timed reads of it are known-bad from now on. */
    void quarantine(Addr addr, std::string reason, unsigned retries,
                    std::string cause = {});

    /**
     * Remap the block frame at @p addr onto a spare row: its stuck
     * cells, pending write failures and armed transient flips are
     * gone (the new row is healthy). The caller must rewrite the
     * block's correct contents. Fails (returns false) once spares
     * are exhausted.
     */
    bool remapToSpare(Addr addr, std::string reason);

    unsigned
    sparesLeft() const
    {
        return params.spareBlocks > remapped_.size()
                   ? unsigned(params.spareBlocks - remapped_.size())
                   : 0;
    }
    const std::vector<RemapRecord> &remapLog() const { return remapped_; }

    bool isQuarantined(Addr addr) const;
    std::size_t quarantineCount() const { return quarantined_.size(); }
    const std::map<Addr, QuarantineRecord> &
    quarantineLog() const
    {
        return quarantined_;
    }

    /**
     * True if @p addr has a fault retries cannot heal (stuck cell,
     * pending write failures, or already quarantined). Oracles use
     * this to exclude deliberately-destroyed blocks from sweeps.
     */
    bool hasUnhealableFault(Addr addr) const;

    std::uint64_t mediaErrorReads() const
    {
        return statMediaErrorReads.value();
    }
    std::uint64_t mediaErrorWrites() const
    {
        return statMediaErrorWrites.value();
    }
    std::uint64_t mediaRetries() const { return statMediaRetries.value(); }
    std::uint64_t mediaHealed() const { return statMediaHealed.value(); }

  private:
    std::size_t bankIndex(Addr addr) const;
    void applyReadFaults(Addr addr, Block &data);
    template <typename Again>
    MediaRetry retryLoop(MediaAttempt attempt, Again &&again);

    NvmParams params;
    BackingStore data_;
    std::vector<Tick> bankBusyUntil;     ///< write track
    std::vector<Tick> bankReadBusyUntil; ///< read track (readPriority)

    // Media-fault state. Transient flips are one-shot; stuck bits
    // override the stored value on every read until quarantined.
    std::multimap<Addr, unsigned> transientFlips_;
    std::map<Addr, std::vector<std::pair<unsigned, bool>>> stuckBits_;
    std::map<Addr, unsigned> writeFailures_;
    std::map<Addr, QuarantineRecord> quarantined_;
    std::vector<RemapRecord> remapped_;
    bool lastReadMediaError_ = false;
    bool lastWriteMediaError_ = false;

    stats::StatGroup stats_;
    stats::Scalar statReads;
    stats::Scalar statWrites;
    stats::Scalar statMediaErrorReads;
    stats::Scalar statMediaErrorWrites;
    stats::Scalar statMediaRetries;
    stats::Scalar statMediaHealed;
    stats::Scalar statQuarantines;
    stats::Scalar statRemaps;
    stats::Scalar statBankConflicts;
    stats::Average statReadQueueing;
    stats::Average statWriteQueueing;
};

} // namespace dolos

#endif // DOLOS_MEM_NVM_DEVICE_HH
