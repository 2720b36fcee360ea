/**
 * @file
 * NVM device implementation.
 */

#include "mem/nvm_device.hh"

#include "sim/trace.hh"
#include "sim/profiler.hh"

namespace dolos
{

NvmDevice::NvmDevice(const NvmParams &p)
    : params(p), bankBusyUntil(p.numBanks, 0),
      bankReadBusyUntil(p.numBanks, 0), stats_("nvm")
{
    stats_.addScalar(&statReads, "reads", "block reads");
    stats_.addScalar(&statWrites, "writes", "block writes");
    stats_.addScalar(&statMediaErrorReads, "mediaErrorReads",
                     "timed reads the device flagged as faulty");
    stats_.addScalar(&statMediaErrorWrites, "mediaErrorWrites",
                     "timed writes that failed to commit");
    stats_.addScalar(&statMediaRetries, "mediaRetries",
                     "device accesses retried after a media error");
    stats_.addScalar(&statMediaHealed, "mediaHealed",
                     "media errors corrected by retrying");
    stats_.addScalar(&statQuarantines, "quarantines",
                     "blocks retired as unrecoverable");
    stats_.addScalar(&statRemaps, "spareRemaps",
                     "worn frames remapped onto spare rows");
    stats_.addScalar(&statBankConflicts, "bankConflicts",
                     "accesses that found their bank busy");
    stats_.addAverage(&statReadQueueing, "readQueueing",
                      "cycles reads waited for a busy bank");
    stats_.addAverage(&statWriteQueueing, "writeQueueing",
                      "cycles writes waited for a busy bank");
}

std::size_t
NvmDevice::bankIndex(Addr addr) const
{
    return (addr / blockSize) % params.numBanks;
}

ReadResult
NvmDevice::read(Addr addr, Tick now)
{
    DOLOS_PROF_SCOPE(Nvm);
    ++statReads;
    Tick &bank = params.readPriority
                     ? bankReadBusyUntil[bankIndex(addr)]
                     : bankBusyUntil[bankIndex(addr)];
    const Tick start = std::max(now, bank);
    statReadQueueing.sample(double(start - now));
    if (start > now)
        ++statBankConflicts;
    bank = start + params.readLatency;
    DOLOS_TRACE(trace::Stage::NvmRead, now, bank, addr, 0);
    Block block = data_.read(blockAlign(addr));
    applyReadFaults(blockAlign(addr), block);
    return {block, bank};
}

Tick
NvmDevice::write(Addr addr, const Block &block, Tick now)
{
    DOLOS_PROF_SCOPE(Nvm);
    ++statWrites;
    Tick &bank = bankBusyUntil[bankIndex(addr)];
    const Tick start = std::max(now, bank);
    statWriteQueueing.sample(double(start - now));
    if (start > now)
        ++statBankConflicts;
    bank = start + params.writeLatency;
    const Addr aligned = blockAlign(addr);
    const auto fail = writeFailures_.find(aligned);
    if (fail != writeFailures_.end() && fail->second > 0) {
        // The cell array rejected the program pulse: the old contents
        // survive and the device reports the failed commit.
        if (--fail->second == 0)
            writeFailures_.erase(fail);
        lastWriteMediaError_ = true;
        ++statMediaErrorWrites;
    } else {
        lastWriteMediaError_ = false;
        data_.write(aligned, block);
    }
    DOLOS_TRACE(trace::Stage::NvmWrite, now, bank, addr, 0);
    return bank;
}

void
NvmDevice::writeFunctional(Addr addr, const Block &block)
{
    data_.write(blockAlign(addr), block);
}

Block
NvmDevice::readFunctional(Addr addr) const
{
    return data_.read(blockAlign(addr));
}

Block
NvmDevice::readFunctionalChecked(Addr addr)
{
    Block block = data_.read(blockAlign(addr));
    applyReadFaults(blockAlign(addr), block);
    return block;
}

template <typename Again>
MediaRetry
NvmDevice::retryLoop(MediaAttempt attempt, Again &&again)
{
    unsigned retries = 0;
    while (attempt.flagged && !attempt.accepted &&
           retries < params.mediaRetryLimit) {
        ++retries;
        ++statMediaRetries;
        attempt = again(attempt.done +
                        (params.mediaRetryBackoff << (retries - 1)));
    }
    if (attempt.accepted && retries)
        ++statMediaHealed;
    return {retries, !attempt.accepted, attempt.flagged, attempt.done};
}

ReadResult
NvmDevice::readRetried(Addr addr, Tick now, MediaRetry &out)
{
    ReadResult r;
    const auto attempt = [&](Tick at) {
        r = read(addr, at);
        return MediaAttempt{lastReadMediaError_, !lastReadMediaError_,
                            r.completeTick};
    };
    out = retryLoop(attempt(now), attempt);
    return r;
}

Block
NvmDevice::readCheckedRetried(Addr addr, MediaRetry &out)
{
    Block b;
    const auto attempt = [&](Tick) {
        b = readFunctionalChecked(addr);
        return MediaAttempt{lastReadMediaError_, !lastReadMediaError_, 0};
    };
    out = retryLoop(attempt(0), attempt);
    return b;
}

Tick
NvmDevice::writeRetried(Addr addr, const Block &data, Tick now,
                        MediaRetry &out)
{
    const auto attempt = [&](Tick at) {
        const Tick done = write(addr, data, at);
        return MediaAttempt{lastWriteMediaError_, !lastWriteMediaError_,
                            done};
    };
    out = retryLoop(attempt(now), attempt);
    return out.done;
}

MediaRetry
NvmDevice::retry(const MediaAttempt &first,
                 const std::function<MediaAttempt(Tick)> &again)
{
    return retryLoop(first, again);
}

Tick
NvmDevice::bankFreeAt(Addr addr) const
{
    return bankBusyUntil[bankIndex(addr)];
}

void
NvmDevice::applyReadFaults(Addr addr, Block &data)
{
    bool faulted = false;
    const auto stuck = stuckBits_.find(addr);
    if (stuck != stuckBits_.end()) {
        for (const auto &[bit, value] : stuck->second) {
            std::uint8_t &byte = data[(bit / 8) % blockSize];
            const std::uint8_t mask = std::uint8_t(1u << (bit % 8));
            const bool current = byte & mask;
            if (current != value) {
                byte = value ? (byte | mask)
                             : std::uint8_t(byte & ~mask);
                faulted = true;
            }
        }
        // A stuck cell is flagged even on reads where the stored value
        // happens to match: the device's scrubber knows the cell is
        // worn and keeps reporting it.
        faulted = true;
    }
    const auto flip = transientFlips_.find(addr);
    if (flip != transientFlips_.end()) {
        data[(flip->second / 8) % blockSize] ^=
            std::uint8_t(1u << (flip->second % 8));
        transientFlips_.erase(flip);
        faulted = true;
    }
    lastReadMediaError_ = faulted;
    if (faulted)
        ++statMediaErrorReads;
}

void
NvmDevice::injectTransientFlip(Addr addr, unsigned bit)
{
    transientFlips_.emplace(blockAlign(addr), bit % (blockSize * 8));
}

void
NvmDevice::injectStuckBit(Addr addr, unsigned bit, bool value)
{
    stuckBits_[blockAlign(addr)].emplace_back(bit % (blockSize * 8),
                                              value);
}

void
NvmDevice::injectWriteFail(Addr addr, unsigned count)
{
    if (count > 0)
        writeFailures_[blockAlign(addr)] += count;
}

void
NvmDevice::quarantine(Addr addr, std::string reason, unsigned retries,
                      std::string cause)
{
    const Addr aligned = blockAlign(addr);
    if (quarantined_.count(aligned))
        return;
    quarantined_.emplace(aligned,
                         QuarantineRecord{aligned, std::move(reason),
                                          retries, std::move(cause)});
    ++statQuarantines;
}

bool
NvmDevice::remapToSpare(Addr addr, std::string reason)
{
    if (remapped_.size() >= params.spareBlocks)
        return false;
    const Addr aligned = blockAlign(addr);
    // The frame's pathologies stay with the old row; the spare row
    // the address now resolves to is healthy.
    stuckBits_.erase(aligned);
    writeFailures_.erase(aligned);
    transientFlips_.erase(aligned);
    remapped_.push_back(RemapRecord{aligned, std::move(reason)});
    ++statRemaps;
    return true;
}

bool
NvmDevice::isQuarantined(Addr addr) const
{
    return quarantined_.count(blockAlign(addr)) != 0;
}

bool
NvmDevice::hasUnhealableFault(Addr addr) const
{
    const Addr aligned = blockAlign(addr);
    return stuckBits_.count(aligned) || writeFailures_.count(aligned) ||
           quarantined_.count(aligned);
}

void
NvmDevice::crash()
{
    // Bank scheduling state and the last-access fault flags live in
    // the (volatile) device controller; the cell array and the
    // physical fault state are in the cells and survive.
    std::fill(bankBusyUntil.begin(), bankBusyUntil.end(), 0);
    std::fill(bankReadBusyUntil.begin(), bankReadBusyUntil.end(), 0);
    lastReadMediaError_ = false;
    lastWriteMediaError_ = false;
}

persist::StateManifest
BackingStore::stateManifest(std::function<bool(Addr)> exclude) const
{
    persist::StateManifest m("BackingStore");
    m.add("blocks", persist::Kind::Persistent, [this, exclude] {
        // Filtered rendering: the crash path legitimately rewrites
        // the excluded regions (ADR dump, recovery journal).
        std::ostringstream os;
        os << '{';
        walk(0, allAddrs, [&](Addr addr, const Block &block) {
            if (!exclude || !exclude(addr))
                os << addr << ':' << persist::describe(block) << ';';
        });
        os << '}';
        return os.str();
    });
    return m;
}

persist::StateManifest
NvmDevice::stateManifest() const
{
    persist::StateManifest m("NvmDevice");
    DOLOS_MF_CONST(m, params);
    DOLOS_MF_DELEGATED_P(m, data_);
    DOLOS_MF_V(m, bankBusyUntil);
    DOLOS_MF_V(m, bankReadBusyUntil);
    DOLOS_MF_P(m, transientFlips_);
    DOLOS_MF_P(m, stuckBits_);
    DOLOS_MF_P(m, writeFailures_);
    DOLOS_MF_P(m, quarantined_);
    DOLOS_MF_P(m, remapped_);
    DOLOS_MF_V(m, lastReadMediaError_);
    DOLOS_MF_V(m, lastWriteMediaError_);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statReads);
    DOLOS_MF_P(m, statWrites);
    DOLOS_MF_P(m, statMediaErrorReads);
    DOLOS_MF_P(m, statMediaErrorWrites);
    DOLOS_MF_P(m, statMediaRetries);
    DOLOS_MF_P(m, statMediaHealed);
    DOLOS_MF_P(m, statQuarantines);
    DOLOS_MF_P(m, statRemaps);
    DOLOS_MF_P(m, statBankConflicts);
    DOLOS_MF_P(m, statReadQueueing);
    DOLOS_MF_P(m, statWriteQueueing);
    return m;
}

} // namespace dolos
