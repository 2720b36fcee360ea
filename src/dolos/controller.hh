/**
 * @file
 * The secure memory controller: WPQ + Mi-SU + Ma-SU (paper §4).
 *
 * One class implements every organization in Figure 5, reading the
 * mode's design row (ModeTraits), so baselines and Dolos share all
 * machinery except the placement of the security work:
 *
 *   NonSecureIdeal      persist at WPQ insert; plaintext to NVM
 *   PreWpqSecure        security engine -> WPQ -> NVM (baseline)
 *   PostWpqUnprotected  WPQ -> security engine -> NVM (infeasible)
 *   DolosFull/Partial   Mi-SU (2/1 MACs) -> WPQ -> Ma-SU -> NVM
 *   DolosPost           WPQ (Mi-SU deferred) -> Ma-SU -> NVM
 *   EadrSecure          caches + WPQ -> security engine -> NVM
 *
 * Timing uses exact timestamp simulation: the drain pipeline is
 * deterministic FIFO, so entries record their insert/persist ticks at
 * insertion and drains are processed lazily, in order, whenever
 * simulated time passes their start. A write that finds the WPQ full
 * retries every retryInterval cycles; each failed attempt is one
 * "re-try event" (paper Table 2).
 */

#ifndef DOLOS_DOLOS_CONTROLLER_HH
#define DOLOS_DOLOS_CONTROLLER_HH

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "dolos/config.hh"
#include "dolos/misu.hh"
#include "dolos/redo_log.hh"
#include "mem/hierarchy.hh"
#include "secure/security_engine.hh"
#include "sim/persist_annotations.hh"

namespace dolos
{

/** What the ADR/eADR crash path did (energy/bounds accounting). */
struct CrashDumpReport
{
    unsigned entriesDumped = 0;   ///< undrained entries flushed
    unsigned entriesInFlight = 0; ///< drains replayable via redo log
    unsigned blocksFlushed = 0;   ///< 64B units written on ADR power
    unsigned energyBytes = 0;     ///< bytes + reserved-op equivalents
    bool withinAdrBudget = true;

    // --- eADR holdup flush (EadrSecure only) ------------------------
    unsigned linesFlushed = 0;  ///< items fully drained on holdup power
    unsigned linesLost = 0;     ///< items quarantined (budget/interrupt)
    bool budgetExhausted = false;  ///< holdup energy ran out mid-flush
    bool flushInterrupted = false; ///< armed microstep killed the flush
    Cycles eadrBudgetCycles = 0;     ///< configured energy budget
    Cycles eadrEnergyUsedCycles = 0; ///< total cycles debited
    Cycles eadrCtrFetchCycles = 0;   ///< per-stage debit breakdown...
    Cycles eadrAesCycles = 0;
    Cycles eadrMacCycles = 0;
    Cycles eadrBmtCycles = 0;
    Cycles eadrNvmWriteCycles = 0;
};

/** What recovery did. */
struct ControllerRecoveryReport
{
    bool misuVerified = true;      ///< dump authentication
    std::size_t entriesRecovered = 0;
    SecureRecoveryResult engine;   ///< Ma-SU metadata recovery
    Cycles modeledRecoveryCycles = 0; ///< paper §5.5 latency model
    bool interrupted = false;  ///< power died mid-recovery (armed)
    bool resumed = false;      ///< continued an interrupted recovery
    std::size_t entriesSkipped = 0; ///< already drained earlier
};

/**
 * The memory controller (implements the hierarchy-facing interface).
 */
class SecureMemController : public PersistController
{
  public:
    SecureMemController(const SystemConfig &cfg, NvmDevice &nvm,
                        SecurityEngine &engine);

    ReadResult readBlock(Addr addr, Tick now) override;
    Tick writebackBlock(Addr addr, const Block &data, Tick now) override;
    PersistTicket persistBlock(Addr addr, const Block &data,
                               Tick now) override;
    Tick pendingPersistTick(Addr addr, Tick now) override;

    /**
     * Power failure at @p at: finish redo-log-covered drains, flush
     * the WPQ under ADR, drop all volatile state. A microstep crash
     * (power dying *inside* a drain's security work) passes
     * @p complete_in_flight = false so the interrupted drain is not
     * re-run before the dump — the entry stays undrained and the
     * redo log / re-drain reconcile it at recovery.
     *
     * In EadrSecure mode, @p eadr_lines carries the dirty cache
     * lines System captured (the eADR persistence domain); the
     * holdup flush drains them through the security pipeline under
     * the energy budget, quarantining whatever it cannot cover.
     */
    CrashDumpReport crash(Tick at, bool complete_in_flight = true,
                          const std::vector<DirtyLine> *eadr_lines =
                              nullptr);

    /** Boot-time recovery (dump verification, drain, Ma-SU recover). */
    ControllerRecoveryReport recover();

    /** Advance background drains to @p t (idle time, test hooks). */
    void drainTo(Tick t);

    /**
     * Fault injection: at the next crash, ADR power dies after
     * flushing @p surviving_entries WPQ entries — the rest of the
     * dump is torn off. One-shot; consumed by crash().
     */
    void armAdrTear(unsigned surviving_entries)
    {
        adrTear = surviving_entries;
    }

    /**
     * Fault injection: power dies again *during* the next recovery,
     * after @p after_steps interruptible recovery steps (redo replay,
     * Ma-SU metadata recovery, then one step per dump entry drained).
     * One-shot; the caller is expected to crash() + recover() again —
     * recovery resumes from the persistent journal.
     */
    void armRecoveryCrash(unsigned after_steps)
    {
        recoveryCrashArm = after_steps;
    }

    /** True while a persistent recovery journal is open (i.e. an ADR
     *  dump is still being consumed). */
    bool recoveryInProgress() const { return readJournal().has_value(); }

    SecurityMode mode() const { return cfg.mode; }
    unsigned wpqCapacity() const { return capacity; }
    const MiSu *misu() const { return misu_.get(); }

    std::uint64_t writeRequests() const { return statWrites.value(); }
    std::uint64_t retryEvents() const { return statRetries.value(); }
    std::uint64_t coalesces() const { return statCoalesces.value(); }
    std::uint64_t wpqReadHits() const { return statWpqReadHits.value(); }

    /** Cycles writes waited for a free WPQ slot (full-queue stalls). */
    std::uint64_t wpqStallCycles() const { return statStallCycles.value(); }

    /** Re-try events per kilo write requests (Table 2 metric). */
    double
    retriesPerKiloWrites() const
    {
        const auto w = writeRequests();
        return w ? 1000.0 * double(retryEvents()) / double(w) : 0.0;
    }

    stats::StatGroup &statGroup() { return stats_; }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

    /** Append this manifest plus every sub-component's to @p out. */
    void collectStateManifests(
        std::vector<persist::StateManifest> &out) const;

  private:
    struct WpqEntry
    {
        std::uint64_t id = 0;
        Addr addr = 0;
        Block plaintext{};
        MisuEntryImage image{};   ///< Dolos modes
        Block ciphertext{};       ///< PreWpqSecure (secured up front)
        Tick persistTick = 0;     ///< entered the persistence domain
        bool drained = false;
        Tick releaseTick = 0;     ///< slot free (Ma-SU cleared)

        friend void
        dolosDescribeValue(std::ostream &os, const WpqEntry &e)
        {
            os << e.id << '/' << e.addr << '/'
               << persist::describe(e.plaintext) << '/'
               << persist::describe(e.image) << '/'
               << persist::describe(e.ciphertext) << '/'
               << e.persistTick << '/' << e.drained << '/'
               << e.releaseTick;
        }
    };

    /** Lazily process FIFO drains whose start time has passed. */
    void processDrainsUntil(Tick t);

    /** End of every crash() path: drop all volatile state. */
    void loseVolatileState();

    /** Drain one entry (mode-specific); sets drained/releaseTick. */
    void drainEntry(WpqEntry &e);

    /**
     * What a raw write of @p e puts at its home address: the
     * plaintext, the Pre-WPQ ciphertext, or — security after the
     * WPQ, on the ADR flush only — a ciphertext secured at @p at.
     */
    Block homeImage(const WpqEntry &e, Tick at);

    /**
     * Pre-WPQ security: secure @p data into @p ct before insertion
     * and return when that finishes (other designs return @p t).
     */
    Tick secureBeforeWpq(Addr addr, const Block &data, Tick t,
                         Block &ct);

    /**
     * Mi-SU protection of @p e once the unit is free, paying the
     * in-path MACs; returns the commit tick (others return @p t).
     */
    Tick misuProtect(WpqEntry &e, Addr addr, const Block &data, Tick t);

    /** Pop released entries and retire their tag-array mappings. */
    void retireReleased(Tick t);

    /**
     * The eADR holdup flush: drain undrained WPQ entries then the
     * captured dirty cache lines through the full security pipeline
     * on residual energy, debiting per-stage cycles against the
     * budget. Items the budget (or an armed flush microstep) cannot
     * cover are quarantined with cause provenance — explicit loss,
     * never silent corruption. Fills @p report; the caller resets
     * the volatile state afterwards.
     */
    void eadrHoldupFlush(Tick at, bool complete_in_flight,
                         const std::vector<DirtyLine> *lines,
                         CrashDumpReport &report);

    /** Common write path (persists and evictions). */
    PersistTicket enqueueWrite(Addr addr, const Block &data, Tick now);

    /** Persistent recovery-journal state (see recover()). */
    enum class RecoveryPhase : std::uint64_t
    {
        Draining = 0, ///< dump entries still being drained
        Epilogue = 1, ///< all drained; epoch/dump cleanup pending
    };
    struct RecoveryJournal
    {
        std::uint64_t drained = 0;
        RecoveryPhase phase = RecoveryPhase::Draining;
    };
    std::optional<RecoveryJournal> readJournal() const;
    void writeJournal(std::uint64_t drained, RecoveryPhase phase);
    void clearJournal();

    /** Consume one armed recovery step; true = power dies here. */
    bool recoveryStep();

    /** Recovery epilogue: retire pads, clear dump + journal. */
    void finishDump();

    /** This controller's design row. */
    const ModeTraits &design() const { return modeTraits(cfg.mode); }

    /** Find the live WPQ entry currently mapping @p addr, if any. */
    WpqEntry *liveEntry(Addr addr);

    unsigned slotOf(const WpqEntry &e) const
    {
        return unsigned(e.id % capacity);
    }

    SystemConfig cfg;
    NvmDevice &nvm;
    SecurityEngine &engine;
    std::unique_ptr<MiSu> misu_;
    RedoLogBuffer redoLog;

    unsigned capacity;
    std::optional<unsigned> adrTear; ///< armed torn-ADR-drain fault
    std::optional<unsigned> recoveryCrashArm; ///< crash-mid-recovery
    std::deque<WpqEntry> wpq;
    std::uint64_t nextId = 0;
    std::uint64_t drainCursor = 0; ///< id of next entry to drain
    std::unordered_map<Addr, std::uint64_t> tagArray; ///< addr -> id
    Tick lastDrainIssue = 0; ///< FIFO issue point for non-engine drains

    stats::StatGroup stats_;
    stats::Scalar statWrites;
    stats::Scalar statPersists;
    stats::Scalar statEvictions;
    stats::Scalar statRetries;
    stats::Scalar statCoalesces;
    stats::Scalar statWpqReadHits;
    stats::Scalar statReads;
    stats::Scalar statStallCycles;
    /** Always 0: drain batching is retired; perfbench reads the name. */
    stats::Scalar statDrainsBatched;
    stats::Average statPersistLatency;
    stats::Average statOccupancy;
    stats::Average statDrainLatency;
    stats::Histogram statPersistLatencyHist{100.0, 32};
    stats::Histogram statStallHist{500.0, 16};
};

} // namespace dolos

#endif // DOLOS_DOLOS_CONTROLLER_HH
