/**
 * @file
 * Secure memory controller implementation.
 */

#include "dolos/controller.hh"

#include "sim/crash_points.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/trace.hh"

namespace dolos
{

namespace
{
constexpr std::uint64_t dumpMarker = 0x57505144554D5031ULL; // "WPQDUMP1"
constexpr std::uint64_t journalMarker = 0x5245434A524E4C31ULL; // "RECJRNL1"
} // namespace

SecureMemController::SecureMemController(const SystemConfig &cfg,
                                         NvmDevice &nvm,
                                         SecurityEngine &engine)
    : cfg(cfg),
      nvm(nvm),
      engine(engine),
      capacity(cfg.wpq.entriesFor(cfg.mode)),
      stats_("mc")
{
    if (design().misu) {
        // Mi-SU's pad key is derived from (distinct from) the data key.
        crypto::AesKey misu_key = cfg.secure.dataKey;
        misu_key[0] ^= 0xD5;
        misu_ = std::make_unique<MiSu>(design(), capacity,
                                       cfg.wpq.misuMacLatency, misu_key,
                                       engine.macEngine());
    }

    stats_.addScalar(&statWrites, "writeRequests",
                     "writes arriving at the controller");
    stats_.addScalar(&statPersists, "persists", "CLWB-path writes");
    stats_.addScalar(&statEvictions, "evictions", "LLC writebacks");
    stats_.addScalar(&statRetries, "retryEvents",
                     "insertion attempts that found the WPQ full");
    stats_.addScalar(&statCoalesces, "coalesces",
                     "writes merged into a live WPQ entry");
    stats_.addScalar(&statWpqReadHits, "wpqReadHits",
                     "reads served from the WPQ tag array");
    stats_.addScalar(&statReads, "reads", "reads reaching the controller");
    stats_.addScalar(&statStallCycles, "wpqStallCycles",
                     "cycles writes waited for a free WPQ slot");
    stats_.addScalar(&statDrainsBatched, "drainsBatched",
                     "always 0 (drain-time batching is retired)");
    stats_.addAverage(&statPersistLatency, "persistLatency",
                      "cycles from arrival to persistence");
    stats_.addAverage(&statOccupancy, "occupancy",
                      "WPQ entries in use at insertion");
    stats_.addAverage(&statDrainLatency, "drainLatency",
                      "cycles from persist to Ma-SU clear");
    stats_.addHistogram(&statStallHist, "wpqStallHist",
                        "distribution of full-WPQ stall cycles");
    if (misu_)
        stats_.addChild(&misu_->statGroup());
}

SecureMemController::WpqEntry *
SecureMemController::liveEntry(Addr addr)
{
    const auto it = tagArray.find(blockAlign(addr));
    if (it == tagArray.end())
        return nullptr;
    const std::uint64_t id = it->second;
    if (wpq.empty() || id < wpq.front().id)
        return nullptr;
    const std::size_t idx = std::size_t(id - wpq.front().id);
    DOLOS_ASSERT(idx < wpq.size(), "tag array points past WPQ");
    return &wpq[idx];
}

void
SecureMemController::drainEntry(WpqEntry &e)
{
    const Tick start = e.persistTick;
    Tick done;
    if (design().security != SecurityPlacement::AfterWpq) {
        // Plain NVM write of the buffered data (Pre-WPQ secured it
        // before insertion, so that is the ciphertext).
        MediaRetry m;
        done = nvm.writeRetried(e.addr, homeImage(e, start),
                                std::max(start, lastDrainIssue), m);
        if (m.failed)
            nvm.quarantine(e.addr,
                           "write failure persisted through retries",
                           m.retries);
        lastDrainIssue = std::max(lastDrainIssue, start);
    } else {
        // Ma-SU: decrypt (1-cycle XOR), full backend security, then
        // the NVM data write. Tentative results are staged in the
        // persistent redo log before the caches/NVM are touched, and
        // the entry is cleared once the log is filled (paper: steps
        // 3 and 4 proceed in parallel once the log is ready).
        DOLOS_CRASH_POINT(WpqDrainIssue);
        const auto res = engine.secureWrite(e.addr, e.plaintext,
                                            start + 1);
        redoLog.fill({e.addr, res.ciphertext, res.macTag, res.counter});
        // The write's commit point: the engine's root/shadow flip and
        // the redo record land as one group, so a crash here replays
        // the ciphertext from the log and the recovered counters meet
        // the new root. No crash point sits between the engine's
        // commit group and this fill.
        DOLOS_CRASH_POINT(MasuRootCommit);
        engine.writeCiphertext(e.addr, res.ciphertext, res.doneTick);
        DOLOS_CRASH_POINT(WpqCtWrite);
        redoLog.clear();
        // Log cleared but WPQ/Mi-SU slot not yet released: the entry
        // still dumps on power loss and re-drains idempotently.
        DOLOS_CRASH_POINT(WpqRedoClear);
        done = res.doneTick;
        if (misu_)
            misu_->clearSlot(slotOf(e));
    }
    e.drained = true;
    e.releaseTick = done;
    statDrainLatency.sample(double(done - e.persistTick));
    DOLOS_TRACE(trace::Stage::WpqDrain, e.persistTick, done, e.addr,
                e.id);
    debugPrintf("Wpq", "drain id=%llu addr=0x%llx done=%llu",
                (unsigned long long)e.id, (unsigned long long)e.addr,
                (unsigned long long)done);
}

Block
SecureMemController::homeImage(const WpqEntry &e, Tick at)
{
    const SecurityPlacement where = design().security;
    if (where == SecurityPlacement::None)
        return e.plaintext;
    if (where == SecurityPlacement::BeforeWpq)
        return e.ciphertext;
    return engine.secureWrite(e.addr, e.plaintext, at).ciphertext;
}

Tick
SecureMemController::secureBeforeWpq(Addr addr, const Block &data, Tick t,
                                     Block &ct)
{
    if (design().security != SecurityPlacement::BeforeWpq)
        return t;
    const auto res = engine.secureWrite(addr, data, t);
    ct = res.ciphertext;
    return res.doneTick;
}

Tick
SecureMemController::misuProtect(WpqEntry &e, Addr addr, const Block &data,
                                 Tick t)
{
    if (!misu_)
        return t;
    t = misu_->acceptableAt(t) + misu_->insertLatency();
    e.image = misu_->protect(slotOf(e), addr, data, t);
    return t;
}

void
SecureMemController::processDrainsUntil(Tick t)
{
    DOLOS_PROF_SCOPE(Controller);
    while (!wpq.empty() && drainCursor <= wpq.back().id) {
        const std::size_t idx = std::size_t(drainCursor - wpq.front().id);
        WpqEntry &e = wpq[idx];
        // A drain starts the cycle after the entry commits, once the
        // drain server (security engine / NVM issue point) frees up.
        const Tick start = std::max(
            e.persistTick + 1,
            design().security == SecurityPlacement::AfterWpq
                ? engine.busyUntil()
                : lastDrainIssue);
        if (start > t)
            break;
        drainEntry(e);
        ++drainCursor;
    }
    retireReleased(t);
}

void
SecureMemController::retireReleased(Tick t)
{
    while (!wpq.empty() && wpq.front().drained &&
           wpq.front().releaseTick <= t) {
        const WpqEntry &e = wpq.front();
        const auto it = tagArray.find(e.addr);
        if (it != tagArray.end() && it->second == e.id)
            tagArray.erase(it);
        wpq.pop_front();
    }
}

PersistTicket
SecureMemController::enqueueWrite(Addr addr, const Block &data, Tick now)
{
    ++statWrites;
    processDrainsUntil(now);
    Tick t = now + cfg.wpq.mcTransitLatency;

    // Write coalescing: merge into a live, not-yet-drained entry.
    if (cfg.wpq.coalescing) {
        WpqEntry *e = liveEntry(addr);
        if (e && !e->drained && e->id >= drainCursor) {
            ++statCoalesces;
            e->plaintext = data;
            // Pre-WPQ: still in front of the WPQ conceptually; the
            // merged data re-runs the security engine.
            t = secureBeforeWpq(addr, data, t, e->ciphertext);
            t = misuProtect(*e, addr, data, t);
            e->persistTick = std::max(e->persistTick, t);
            statPersistLatency.sample(double(e->persistTick - now));
            DOLOS_TRACE(trace::Stage::WpqCoalesce, now, e->persistTick,
                        e->addr, e->id);
            return {now + cfg.wpq.mcTransitLatency, e->persistTick};
        }
    }

    WpqEntry e;
    t = secureBeforeWpq(addr, data, t, e.ciphertext);

    // Wait for a free WPQ slot, then pay the Mi-SU critical-path
    // latency and commit. An insertion that finds the queue full is
    // one re-try event (Table 2's metric); the request then re-polls
    // every retryInterval cycles until a drain frees a slot.
    statOccupancy.sample(double(wpq.size()));
    if (wpq.size() >= capacity)
        ++statRetries;
    const Tick stall_from = t;
    while (wpq.size() >= capacity) {
        t += cfg.wpq.retryInterval;
        processDrainsUntil(t);
    }
    if (t > stall_from) {
        statStallCycles += t - stall_from;
        statStallHist.sample(double(t - stall_from));
        DOLOS_TRACE(trace::Stage::WpqStall, stall_from, t, addr,
                    nextId);
        debugPrintf("Wpq", "full: addr=0x%llx stalled %llu cycles",
                    (unsigned long long)addr,
                    (unsigned long long)(t - stall_from));
    }

    e.id = nextId++;
    e.addr = blockAlign(addr);
    e.plaintext = data;
    e.persistTick = misuProtect(e, e.addr, data, t);

    wpq.push_back(e);
    tagArray[e.addr] = e.id;

    statPersistLatency.sample(double(e.persistTick - now));
    DOLOS_TRACE(trace::Stage::WpqInsert, now, e.persistTick, e.addr,
                e.id);
    return {now + cfg.wpq.mcTransitLatency, e.persistTick};
}

PersistTicket
SecureMemController::persistBlock(Addr addr, const Block &data, Tick now)
{
    ++statPersists;
    return enqueueWrite(addr, data, now);
}

Tick
SecureMemController::writebackBlock(Addr addr, const Block &data,
                                    Tick now)
{
    ++statEvictions;
    enqueueWrite(addr, data, now);
    return now + cfg.wpq.mcTransitLatency;
}

Tick
SecureMemController::pendingPersistTick(Addr addr, Tick now)
{
    processDrainsUntil(now);
    if (const WpqEntry *e = liveEntry(addr))
        return std::max(now, e->persistTick);
    return now;
}

ReadResult
SecureMemController::readBlock(Addr addr, Tick now)
{
    ++statReads;
    processDrainsUntil(now);
    const Tick t = now + cfg.wpq.mcTransitLatency;

    // Reads hitting the WPQ are served via the volatile tag array;
    // decrypting the entry is a single XOR (paper §4.5).
    if (const WpqEntry *e = liveEntry(addr)) {
        ++statWpqReadHits;
        return {e->plaintext, t + 1};
    }

    const Addr aligned = blockAlign(addr);
    if (design().security != SecurityPlacement::None)
        return engine.secureRead(aligned, t);
    // Modes that skip the security engine still honor the device's
    // fault flag.
    if (nvm.isQuarantined(aligned))
        return {zeroBlock(), t + cfg.nvm.readLatency};
    MediaRetry m;
    const ReadResult r = nvm.readRetried(aligned, t, m);
    if (!m.failed)
        return r;
    nvm.quarantine(aligned, "uncorrectable media fault (raw read)",
                   m.retries);
    return {zeroBlock(), r.completeTick};
}

void
SecureMemController::drainTo(Tick t)
{
    processDrainsUntil(t);
}

std::optional<SecureMemController::RecoveryJournal>
SecureMemController::readJournal() const
{
    const Block j = nvm.readFunctional(AddressMap::recoveryJournalAddr());
    if (loadWord(j, 0) != journalMarker)
        return std::nullopt;
    RecoveryJournal journal;
    journal.drained = loadWord(j, 8);
    journal.phase = RecoveryPhase(loadWord(j, 16));
    return journal;
}

void
SecureMemController::writeJournal(std::uint64_t drained,
                                  RecoveryPhase phase)
{
    Block j{};
    storeWord(j, 0, journalMarker);
    storeWord(j, 8, drained);
    storeWord(j, 16, std::uint64_t(phase));
    nvm.writeFunctional(AddressMap::recoveryJournalAddr(), j);
}

void
SecureMemController::clearJournal()
{
    nvm.writeFunctional(AddressMap::recoveryJournalAddr(), zeroBlock());
}

bool
SecureMemController::recoveryStep()
{
    if (!recoveryCrashArm)
        return false;
    if (*recoveryCrashArm == 0) {
        recoveryCrashArm.reset();
        return true;
    }
    --*recoveryCrashArm;
    return false;
}

void
SecureMemController::finishDump()
{
    // Pads are never reused after being exposed by a dump. Replaying
    // this epilogue after an interruption merely skips an epoch.
    misu_->advanceEpoch();
    nvm.writeFunctional(AddressMap::wpqDumpBase, zeroBlock());
    clearJournal();
}

void
SecureMemController::eadrHoldupFlush(Tick at, bool complete_in_flight,
                                     const std::vector<DirtyLine> *lines,
                                     CrashDumpReport &report)
{
    report.eadrBudgetCycles = cfg.eadr.energyBudgetCycles;

    // Pre-failure lazy work: drains that were already due finish on
    // the ADR grace window, not on holdup energy. An armed flush
    // microstep can fire inside these too — the machine is then off
    // before the flush proper even starts.
    bool interrupted = false;
    const char *interrupted_at = "";
    if (complete_in_flight) {
        try {
            processDrainsUntil(at);
        } catch (const crashpoint::MicrostepCrash &c) {
            interrupted = true;
            interrupted_at = crashpoint::stepName(c.step);
        }
    }

    // An interrupted drain may have left a ready redo record whose
    // ciphertext belongs to a counter the engine already committed.
    // Apply and retire it now, before the owning entry re-drains
    // below — replaying it at recovery, after the flush bumped the
    // counter again, would pair stale ciphertext with a newer
    // counter and false-alarm the MAC check.
    if (redoLog.ready()) {
        const auto &rec = redoLog.record();
        // No crash hooks here: the replay is idempotent — if power
        // dies before these lines, recovery applies the same record —
        // so no new machine state is reachable by crashing inside it.
        nvm.writeFunctional(rec.addr, rec.ciphertext); // dolos-lint: allow(crash-cover)
        redoLog.clear(); // dolos-lint: allow(crash-cover)
    }

    // The flush list, in the documented deterministic order:
    // undrained WPQ entries in FIFO order first (oldest data, so a
    // later duplicate overwrites it), then the captured dirty cache
    // lines (newest copies, L1 > L2 > LLC). Every item is inside the
    // eADR persistence domain — whatever the flush cannot cover is
    // committed-by-contract data that must be reported lost.
    std::vector<DirtyLine> items;
    for (const auto &e : wpq)
        if (!e.drained)
            items.push_back({e.addr, e.plaintext});
    report.entriesDumped = unsigned(items.size());
    if (lines)
        items.insert(items.end(), lines->begin(), lines->end());

    std::size_t flushed = 0;
    if (!interrupted) {
        try {
            Tick t = at;
            for (const auto &item : items) {
                // Admission control: a line starts only while energy
                // remains; an admitted line always completes (the
                // capacitor bank keeps one worst-case line of
                // margin). This is what makes the surviving prefix
                // well-defined.
                if (report.eadrEnergyUsedCycles >=
                    cfg.eadr.energyBudgetCycles) {
                    report.budgetExhausted = true;
                    DOLOS_CRASH_POINT(EadrBudgetExhausted);
                    break;
                }
                const auto ctr0 = engine.ctrFetchCycles();
                const auto aes0 = engine.aesCycles();
                const auto mac0 = engine.macCycles();
                const auto bmt0 = engine.bmtCycles();
                DOLOS_CRASH_POINT(EadrLineSelect);
                const auto res =
                    engine.secureWrite(item.addr, item.data, t);
                engine.writeCiphertext(item.addr, res.ciphertext,
                                       res.doneTick);
                DOLOS_CRASH_POINT(EadrNvmWrite);
                t = res.doneTick;
                const Cycles ctr_c = engine.ctrFetchCycles() - ctr0;
                const Cycles aes_c = engine.aesCycles() - aes0;
                const Cycles mac_c = engine.macCycles() - mac0;
                const Cycles bmt_c = engine.bmtCycles() - bmt0;
                report.eadrCtrFetchCycles += ctr_c;
                report.eadrAesCycles += aes_c;
                report.eadrMacCycles += mac_c;
                report.eadrBmtCycles += bmt_c;
                report.eadrNvmWriteCycles += cfg.nvm.writeLatency;
                report.eadrEnergyUsedCycles +=
                    ctr_c + aes_c + mac_c + bmt_c + cfg.nvm.writeLatency;
                ++flushed;
            }
        } catch (const crashpoint::MicrostepCrash &c) {
            // Power died during the power-fail flush: the item being
            // processed did not complete. Everything before it did.
            interrupted = true;
            interrupted_at = crashpoint::stepName(c.step);
        }
    }
    report.linesFlushed = unsigned(flushed);
    report.blocksFlushed = unsigned(flushed);
    report.flushInterrupted = interrupted;

    // Graceful degradation: the un-flushed tail would otherwise be
    // silent corruption (under eADR a store is persistent-by-
    // contract the moment it lands in the cache). Quarantine each
    // lost address with cause provenance so reads degrade loudly and
    // dumpDamageJson explains what happened.
    if (flushed < items.size()) {
        std::string cause = report.budgetExhausted
                                ? "eadr_flush_budget_exhausted"
                                : std::string("eadr_flush_interrupted@") +
                                      interrupted_at;
        for (std::size_t i = flushed; i < items.size(); ++i) {
            if (nvm.isQuarantined(items[i].addr))
                continue;
            nvm.quarantine(items[i].addr,
                           "eADR holdup flush could not cover this line",
                           0, cause);
            ++report.linesLost;
        }
    }
    report.withinAdrBudget =
        !report.budgetExhausted && !report.flushInterrupted;
    report.energyBytes = unsigned(flushed) * design().entryBytes;
}

CrashDumpReport
SecureMemController::crash(Tick at, bool complete_in_flight,
                           const std::vector<DirtyLine> *eadr_lines)
{
    if (design().eadrDomain) {
        // eADR: no Mi-SU dump, no recovery journal — the holdup
        // flush fully drains (or loudly quarantines) everything in
        // the persistence domain, then the volatile state dies.
        CrashDumpReport report;
        eadrHoldupFlush(at, complete_in_flight, eadr_lines, report);
        loseVolatileState();
        return report;
    }

    // An op-boundary power failure gives the drain server its ADR
    // grace: everything due by @p at finishes. A microstep crash is
    // *inside* a drain — re-running the interrupted entry's security
    // work before dumping would double-apply it, so the WPQ is dumped
    // exactly as the failure found it.
    if (complete_in_flight)
        processDrainsUntil(at);
    CrashDumpReport report;

    // A power failure while recovery is still consuming an ADR dump:
    // the WPQ holds no new writes, and rewriting the dump header
    // below would orphan the undrained entries. Preserve the dump
    // and the journal; the restarted recovery resumes from them.
    if (misu_ && readJournal()) {
        loseVolatileState();
        return report;
    }

    // Entries whose drain started are covered by the redo log.
    for (const auto &e : wpq)
        if (e.drained && e.releaseTick > at)
            ++report.entriesInFlight;

    std::vector<const WpqEntry *> undrained;
    for (const auto &e : wpq)
        if (!e.drained)
            undrained.push_back(&e);
    report.entriesDumped = unsigned(undrained.size());

    // Injected torn-drain fault: ADR power dies after this many
    // entries; the remainder of the flush never reaches NVM.
    const unsigned flush_limit =
        adrTear ? std::min(*adrTear, unsigned(undrained.size()))
                : unsigned(undrained.size());
    adrTear.reset();

    if (misu_) {
        // Dolos: flush the Mi-SU-protected images to the dump
        // region; no cryptography runs on ADR power.
        Block header{};
        storeWord(header, 0, dumpMarker);
        storeWord(header, 8, undrained.size());
        storeWord(header, 16, std::uint64_t(cfg.mode));
        nvm.writeFunctional(AddressMap::wpqDumpBase, header);
        ++report.blocksFlushed;

        for (unsigned i = 0; i < flush_limit; ++i) {
            const WpqEntry &e = *undrained[i];
            const Addr base = AddressMap::wpqDumpAddr(1 + i);
            nvm.writeFunctional(base, e.image.ctData);
            Block meta{};
            storeWord(meta, 0, e.image.ctAddr);
            std::memcpy(meta.data() + 8, e.image.mac.data(), 8);
            storeWord(meta, 16, slotOf(e));
            nvm.writeFunctional(base + blockSize, meta);
            report.blocksFlushed += 2;
        }
    } else {
        // ADR flushes the WPQ to the home locations: plaintext, the
        // Pre-WPQ ciphertext, or — the infeasible Figure 6 strawman
        // — ciphertext secured on ADR power.
        for (unsigned i = 0; i < flush_limit; ++i)
            nvm.writeFunctional(undrained[i]->addr,
                                homeImage(*undrained[i], at));
        report.blocksFlushed = report.entriesDumped * 2;
    }
    // Energy: the Mi-SU header block, each dumped entry (plus its
    // security work if that runs on ADR power) and the reserve for
    // an in-flight MAC, against the budget of a full non-secure WPQ.
    const unsigned header_bytes = misu_ ? blockSize : 0;
    report.energyBytes =
        header_bytes +
        report.entriesDumped *
            (design().entryBytes + design().adrSecurityBytes) +
        design().reserveBytes;
    report.withinAdrBudget =
        report.energyBytes <= blockSize + cfg.wpq.adrBudgetEntries * 72;

    loseVolatileState();
    return report;
}

void
SecureMemController::loseVolatileState()
{
    // Volatile state dies with the power.
    adrTear.reset();
    wpq.clear();
    tagArray.clear();
    drainCursor = nextId;
    lastDrainIssue = 0;
    if (misu_)
        misu_->crash();
    engine.crash();
    nvm.crash();
}

ControllerRecoveryReport
SecureMemController::recover()
{
    ControllerRecoveryReport report;

    // Dolos: open (or re-open) the persistent recovery journal before
    // the first interruptible step, so a power failure at ANY point
    // below leaves crash() evidence that a dump is being consumed.
    std::optional<RecoveryJournal> journal;
    bool have_dump = false;
    Block header{};
    if (misu_) {
        journal = readJournal();
        report.resumed = journal.has_value();
        header = nvm.readFunctional(AddressMap::wpqDumpBase);
        have_dump = loadWord(header, 0) == dumpMarker;
        if (have_dump && !journal)
            writeJournal(0, RecoveryPhase::Draining);
    }

    // Replay a ready redo-log record first (paper §4.4 recovery).
    if (redoLog.ready()) {
        const auto &rec = redoLog.record();
        nvm.writeFunctional(rec.addr, rec.ciphertext);
        redoLog.clear();
    }
    if (recoveryStep()) {
        report.interrupted = true;
        return report;
    }

    if (design().security != SecurityPlacement::None)
        report.engine = engine.recover();
    if (recoveryStep()) {
        report.interrupted = true;
        return report;
    }

    if (!misu_)
        return report;

    if (!have_dump) {
        // Clean shutdown — or an interruption that had already wiped
        // the dump; either way only the journal needs clearing.
        if (journal)
            clearJournal();
        return report;
    }

    if (journal && journal->phase == RecoveryPhase::Epilogue) {
        // Every entry was drained by the interrupted attempt; only
        // the pad-retirement epilogue remains.
        report.entriesSkipped = journal->drained;
        finishDump();
        report.modeledRecoveryCycles =
            Cycles(capacity) * cfg.secure.aesLatency;
        return report;
    }

    // The header's count is NVM content an attacker can forge; an
    // honest dump never holds more than the WPQ, so a larger count
    // fails authentication before a single entry is read.
    const std::uint64_t count = loadWord(header, 8);
    const bool forged_count = count > capacity;
    std::vector<std::pair<unsigned, MisuEntryImage>> images;
    for (std::uint64_t i = 0; !forged_count && i < count; ++i) {
        const Addr base = AddressMap::wpqDumpAddr(1 + i);
        MisuEntryImage img;
        img.ctData = nvm.readFunctional(base);
        const Block meta = nvm.readFunctional(base + blockSize);
        img.ctAddr = loadWord(meta, 0);
        std::memcpy(img.mac.data(), meta.data() + 8, 8);
        images.emplace_back(unsigned(loadWord(meta, 16)), img);
    }

    if (forged_count) {
        report.misuVerified = false;
    } else if (design().rootMac) {
        report.misuVerified = misu_->verifyRoot(images);
    } else {
        for (const auto &[slot, img] : images)
            report.misuVerified &= misu_->verifyEntry(slot, img);
    }
    if (!report.misuVerified)
        engine.noteAttack("Mi-SU WPQ dump failed authentication");

    if (report.misuVerified) {
        // Drain the recovered entries through Ma-SU in FIFO order,
        // checkpointing the journal after each entry. Entries a
        // previous (interrupted) attempt already drained are skipped:
        // their ciphertext and metadata are persistent, and replaying
        // them would be wasted work, not a correctness problem — the
        // pads stay valid until the epoch advances in the epilogue.
        std::uint64_t already = journal ? journal->drained : 0;
        if (already > count)
            already = count;
        Tick t = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            if (i < already) {
                ++report.entriesSkipped;
                continue;
            }
            const auto &[slot, img] = images[i];
            const auto [addr, data] = misu_->unprotect(slot, img);
            const auto res = engine.secureWrite(addr, data, t);
            engine.writeCiphertext(addr, res.ciphertext, res.doneTick);
            t = res.doneTick;
            ++report.entriesRecovered;
            writeJournal(i + 1, RecoveryPhase::Draining);
            if (recoveryStep()) {
                report.interrupted = true;
                return report;
            }
        }
    }

    writeJournal(count, RecoveryPhase::Epilogue);
    if (recoveryStep()) {
        report.interrupted = true;
        return report;
    }
    finishDump();

    // Paper §5.5 recovery-latency model: read back the dump, re-
    // generate pads, drain each entry (2100 cycles incl. NVM write
    // and Ma-SU), recompute fresh pads.
    const unsigned read_blocks = capacity + design().dumpMacBlocks;
    report.modeledRecoveryCycles =
        Cycles(read_blocks) * cfg.nvm.readLatency +
        Cycles(capacity) * cfg.secure.aesLatency +
        Cycles(capacity) * 2100 +
        Cycles(capacity) * cfg.secure.aesLatency;
    return report;
}

persist::StateManifest
RedoLogBuffer::stateManifest() const
{
    persist::StateManifest m("RedoLogBuffer");
    DOLOS_MF_P(m, rec);
    DOLOS_MF_P(m, ready_);
    return m;
}

persist::StateManifest
SecureMemController::stateManifest() const
{
    persist::StateManifest m("SecureMemController");
    DOLOS_MF_CONST(m, cfg);
    DOLOS_MF_CONST(m, nvm);
    DOLOS_MF_CONST(m, engine);
    DOLOS_MF_DELEGATED_P(m, misu_);
    DOLOS_MF_DELEGATED_P(m, redoLog);
    DOLOS_MF_CONST(m, capacity);
    DOLOS_MF_V(m, adrTear);
    // Armed mid-recovery faults survive until the *next* recovery
    // consumes them (they model firmware, not dynamic state).
    DOLOS_MF_P(m, recoveryCrashArm);
    DOLOS_MF_V(m, wpq);
    DOLOS_MF_P(m, nextId);
    DOLOS_MF_V_CHECK(m, drainCursor,
                     "reset to nextId (no entry left to drain)",
                     [this] { return drainCursor == nextId; });
    DOLOS_MF_V(m, tagArray);
    DOLOS_MF_V(m, lastDrainIssue);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statWrites);
    DOLOS_MF_P(m, statPersists);
    DOLOS_MF_P(m, statEvictions);
    DOLOS_MF_P(m, statRetries);
    DOLOS_MF_P(m, statCoalesces);
    DOLOS_MF_P(m, statWpqReadHits);
    DOLOS_MF_P(m, statReads);
    DOLOS_MF_P(m, statStallCycles);
    DOLOS_MF_P(m, statDrainsBatched);
    DOLOS_MF_P(m, statPersistLatency);
    DOLOS_MF_P(m, statOccupancy);
    DOLOS_MF_P(m, statDrainLatency);
    DOLOS_MF_P(m, statStallHist);
    return m;
}

void
SecureMemController::collectStateManifests(
    std::vector<persist::StateManifest> &out) const
{
    out.push_back(stateManifest());
    if (misu_)
        out.push_back(misu_->stateManifest());
    out.push_back(redoLog.stateManifest());
}

} // namespace dolos
