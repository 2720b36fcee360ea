/**
 * @file
 * Fault and attack injection implementation.
 */

#include "verify/fault_injector.hh"

#include <cstdio>

#include "secure/address_map.hh"
#include "secure/merkle_tree.hh"

namespace dolos::verify
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None:
        return "none";
      case FaultKind::DataFlip:
        return "data-flip";
      case FaultKind::MacFlip:
        return "mac-flip";
      case FaultKind::CounterRollback:
        return "counter-rollback";
      case FaultKind::BmtFlip:
        return "bmt-flip";
      case FaultKind::TornAdrDump:
        return "torn-adr-dump";
      case FaultKind::DroppedClwb:
        return "dropped-clwb";
      case FaultKind::MediaTransient:
        return "media-transient";
      case FaultKind::MediaStuck:
        return "media-stuck";
      case FaultKind::MediaWriteFail:
        return "media-write-fail";
    }
    return "unknown";
}

std::optional<FaultKind>
parseFaultKind(const std::string &name)
{
    if (name == "none")
        return FaultKind::None;
    for (const FaultKind kind : allFaultKinds)
        if (name == faultKindName(kind))
            return kind;
    return std::nullopt;
}

std::optional<Addr>
FaultInjector::pickVictimDataBlock()
{
    std::vector<Addr> candidates;
    sys.nvmDevice().store().walk(
        0, sys.config().secure.map.protectedBytes,
        [&](Addr addr, const Block &) { candidates.push_back(addr); });
    if (candidates.empty())
        return std::nullopt;
    return candidates[rng.below(candidates.size())];
}

InjectionRecord
FaultInjector::flipBitAt(FaultKind kind, Addr addr)
{
    InjectionRecord rec;
    rec.kind = kind;
    rec.target = addr;
    rec.bit = unsigned(rng.below(blockSize * 8));
    Block b = sys.nvmDevice().readFunctional(addr);
    b[rec.bit / 8] ^= std::uint8_t(1u << (rec.bit % 8));
    sys.nvmDevice().writeFunctional(addr, b);
    rec.injected = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "flipped bit %u of NVM block 0x%llx",
                  rec.bit, (unsigned long long)addr);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::armTornAdrDump(unsigned surviving_entries)
{
    InjectionRecord rec;
    rec.kind = FaultKind::TornAdrDump;
    rec.injected = true;
    rec.target = AddressMap::wpqDumpBase;
    sys.controller().armAdrTear(surviving_entries);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "ADR dump armed to tear after %u entries",
                  surviving_entries);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::armDroppedClwb(std::uint64_t nth)
{
    InjectionRecord rec;
    rec.kind = FaultKind::DroppedClwb;
    rec.injected = true;
    sys.core().armClwbDrop(nth);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "CLWB %llu from now will be silently dropped",
                  (unsigned long long)nth);
    rec.detail = buf;
    return rec;
}

namespace
{
/** The metadata frame of @p region that covers data block @p victim. */
Addr
metadataTargetFor(NvmRegion region, Addr victim)
{
    switch (region) {
      case NvmRegion::Counter:
        return AddressMap::counterBlockAddr(victim);
      case NvmRegion::Tree:
        return AddressMap::treeNodeAddr(
            1, AddressMap::pageOf(victim) / MerkleTree::arity);
      case NvmRegion::Mac:
        return AddressMap::macBlockAddr(victim);
      default:
        return victim;
    }
}

/** "0xV" for a data target, "REGION block 0xT" for a metadata one. */
std::string
describeTarget(const InjectionRecord &rec)
{
    char buf[64];
    if (rec.region == NvmRegion::Data)
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      (unsigned long long)rec.target);
    else
        std::snprintf(buf, sizeof(buf), "%s block 0x%llx",
                      nvmRegionName(rec.region),
                      (unsigned long long)rec.target);
    return buf;
}

/** " (covers 0xV)" for a metadata target. */
std::string
describeCover(const InjectionRecord &rec)
{
    if (rec.region == NvmRegion::Data)
        return "";
    char buf[48];
    std::snprintf(buf, sizeof(buf), " (covers 0x%llx)",
                  (unsigned long long)rec.victim);
    return buf;
}
} // namespace

bool
FaultInjector::pickMediaTarget(InjectionRecord &rec, NvmRegion region)
{
    rec.region = region;
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return false;
    }
    rec.victim = *victim;
    rec.target = metadataTargetFor(region, *victim);
    rec.bit = unsigned(rng.below(blockSize * 8));
    rec.injected = true;
    return true;
}

InjectionRecord
FaultInjector::injectMediaTransient(NvmRegion region)
{
    InjectionRecord rec;
    rec.kind = FaultKind::MediaTransient;
    if (!pickMediaTarget(rec, region))
        return rec;
    sys.nvmDevice().injectTransientFlip(rec.target, rec.bit);
    rec.detail = "armed transient flip of bit " + std::to_string(rec.bit) +
                 " on next read of " + describeTarget(rec) +
                 describeCover(rec);
    return rec;
}

InjectionRecord
FaultInjector::injectMediaStuck(NvmRegion region)
{
    InjectionRecord rec;
    rec.kind = FaultKind::MediaStuck;
    if (!pickMediaTarget(rec, region))
        return rec;
    // Stick the cell at the complement of its stored value so the
    // fault is visible on the very next read.
    const Block stored = sys.nvmDevice().readFunctional(rec.target);
    const bool current =
        stored[rec.bit / 8] & std::uint8_t(1u << (rec.bit % 8));
    sys.nvmDevice().injectStuckBit(rec.target, rec.bit, !current);
    rec.detail = "stuck bit " + std::to_string(rec.bit) + " of " +
                 describeTarget(rec) + " at " +
                 std::to_string(int(!current)) + describeCover(rec);
    return rec;
}

InjectionRecord
FaultInjector::armMediaWriteFail(unsigned failures)
{
    InjectionRecord rec;
    rec.kind = FaultKind::MediaWriteFail;
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    rec.victim = rec.target = *victim;
    sys.nvmDevice().injectWriteFail(*victim, failures);
    rec.injected = true;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "next %u writes to 0x%llx will fail", failures,
                  (unsigned long long)*victim);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::injectDataFlip()
{
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        InjectionRecord rec;
        rec.kind = FaultKind::DataFlip;
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    InjectionRecord rec = flipBitAt(FaultKind::DataFlip, *victim);
    rec.victim = *victim;
    return rec;
}

InjectionRecord
FaultInjector::injectMacFlip()
{
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        InjectionRecord rec;
        rec.kind = FaultKind::MacFlip;
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    // Flip a bit inside the victim's own 8-byte MAC lane so a read of
    // the victim is guaranteed to fail authentication.
    const Addr mac_block = AddressMap::macBlockAddr(*victim);
    const unsigned lane = AddressMap::macOffsetInBlock(*victim);
    InjectionRecord rec;
    rec.kind = FaultKind::MacFlip;
    rec.target = mac_block;
    rec.victim = *victim;
    rec.bit = lane * 8 + unsigned(rng.below(64));
    Block b = sys.nvmDevice().readFunctional(mac_block);
    b[rec.bit / 8] ^= std::uint8_t(1u << (rec.bit % 8));
    sys.nvmDevice().writeFunctional(mac_block, b);
    rec.injected = true;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "flipped bit %u of MAC block 0x%llx (victim 0x%llx)",
                  rec.bit, (unsigned long long)mac_block,
                  (unsigned long long)*victim);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::injectCounterRollback()
{
    InjectionRecord rec;
    rec.kind = FaultKind::CounterRollback;

    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    const Addr cb_addr = AddressMap::counterBlockAddr(*victim);
    if (!sys.nvmDevice().store().contains(cb_addr)) {
        rec.detail = "victim's counter block not persisted yet";
        return rec;
    }

    // Roll the packed counter block backwards: decrement the last
    // nonzero byte. Any decrement yields some strictly older (or at
    // least different) counter state the attacker could have replayed.
    Block b = sys.nvmDevice().readFunctional(cb_addr);
    int pos = -1;
    for (int i = int(blockSize) - 1; i >= 0; --i) {
        if (b[i] != 0) {
            pos = i;
            break;
        }
    }
    if (pos < 0) {
        rec.detail = "counter block is all-zero; nothing to roll back";
        return rec;
    }
    --b[pos];
    sys.nvmDevice().writeFunctional(cb_addr, b);

    // A real rollback adversary also reverts the recovery metadata
    // that would repair the counter: scrub every Anubis shadow slot to
    // zero. A zeroed slot carries no ANUBISV1 marker, so the scan
    // treats it as never-written — the stale counter must then be
    // caught by the integrity-tree root comparison, not silently
    // repaired by the shadow merge.
    std::size_t scrubbed = 0;
    sys.nvmDevice().store().walk(
        AddressMap::shadowBase, AddressMap::wpqDumpBase,
        [&](Addr addr, const Block &) {
            sys.nvmDevice().writeFunctional(addr, zeroBlock());
            ++scrubbed;
        });

    rec.injected = true;
    rec.target = cb_addr;
    rec.victim = *victim;
    rec.bit = unsigned(pos);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "rolled back counter block 0x%llx (byte %d) and "
                  "scrubbed %zu shadow slots",
                  (unsigned long long)cb_addr, pos, scrubbed);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::injectBmtFlip()
{
    InjectionRecord rec;
    rec.kind = FaultKind::BmtFlip;

    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return rec;
    }

    // Corrupt a tree node on the victim page's verification path.
    // fetchCounter's walk only authenticates nodes present in NVM, so
    // prefer a stored node; if none of the path was ever evicted,
    // forge the level-1 node instead — making it present with a wrong
    // tag guarantees the next walk sees the mismatch.
    const Addr page_idx = AddressMap::pageOf(*victim);
    Addr idx = page_idx;
    Addr node_addr = 0;
    bool found = false;
    for (unsigned lvl = 1; lvl < 16 && !found; ++lvl) {
        idx /= MerkleTree::arity;
        const Addr candidate = AddressMap::treeNodeAddr(lvl, idx);
        if (sys.nvmDevice().store().contains(candidate)) {
            node_addr = candidate;
            found = true;
        }
        if (idx == 0)
            break;
    }
    if (found) {
        InjectionRecord flipped = flipBitAt(FaultKind::BmtFlip, node_addr);
        flipped.victim = *victim;
        return flipped;
    }

    node_addr = AddressMap::treeNodeAddr(1, page_idx / MerkleTree::arity);
    Block forged = zeroBlock();
    forged[rng.below(blockSize)] = std::uint8_t(1u << rng.below(8));
    sys.nvmDevice().writeFunctional(node_addr, forged);
    rec.injected = true;
    rec.target = node_addr;
    rec.victim = *victim;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "forged tree node 0x%llx on page %llu's path",
                  (unsigned long long)node_addr,
                  (unsigned long long)page_idx);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::inject(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DataFlip:
        return injectDataFlip();
      case FaultKind::MacFlip:
        return injectMacFlip();
      case FaultKind::CounterRollback:
        return injectCounterRollback();
      case FaultKind::BmtFlip:
        return injectBmtFlip();
      case FaultKind::MediaTransient:
        return injectMediaTransient();
      case FaultKind::MediaStuck:
        return injectMediaStuck();
      case FaultKind::MediaWriteFail:
        return armMediaWriteFail(16); // beyond any retry budget
      default:
        break;
    }
    InjectionRecord rec;
    rec.kind = kind;
    rec.detail = "kind is not an NVM image mutation";
    return rec;
}

FaultEpisode::FaultEpisode(System &sys, FaultKind kind,
                           std::uint64_t seed, NvmRegion region)
    : sys(sys), inj(sys, seed), kind(kind), seed(seed), region(region)
{
}

void
FaultEpisode::arm()
{
    if (kind == FaultKind::TornAdrDump) {
        const unsigned entries =
            sys.config().wpq.entriesFor(sys.config().mode);
        rec = inj.armTornAdrDump(unsigned(seed % entries));
    } else if (kind == FaultKind::DroppedClwb) {
        rec = inj.armDroppedClwb(seed % 64);
    }
}

void
FaultEpisode::strikeMetadataEarly()
{
    if (region == NvmRegion::Data || (kind != FaultKind::MediaTransient &&
                                      kind != FaultKind::MediaStuck))
        return;
    rec = kind == FaultKind::MediaTransient
              ? inj.injectMediaTransient(region)
              : inj.injectMediaStuck(region);
    struckEarly = true;
}

const InjectionRecord &
FaultEpisode::strike(bool run_crashed)
{
    switch (kind) {
      case FaultKind::None:
      case FaultKind::DroppedClwb:
        break;
      case FaultKind::TornAdrDump:
        if (!run_crashed) {
            sys.crash();
            sys.recoverToCompletion();
        }
        break;
      case FaultKind::CounterRollback:
        sys.crash();
        rec = inj.inject(kind);
        sys.recoverToCompletion();
        break;
      case FaultKind::MediaTransient:
      case FaultKind::MediaStuck:
        if (region != NvmRegion::Data) {
            if (!struckEarly)
                rec = kind == FaultKind::MediaTransient
                          ? inj.injectMediaTransient(region)
                          : inj.injectMediaStuck(region);
            sys.crash();
            sys.recoverToCompletion();
            provoke();
            break;
        }
        [[fallthrough]];
      default:
        sys.crash();
        sys.recoverToCompletion();
        rec = inj.inject(kind);
        provoke();
        break;
    }
    return rec;
}

void
FaultEpisode::provoke()
{
    if (!rec.injected)
        return;
    if (kind == FaultKind::MediaWriteFail) {
        // Rewrite the victim so the failing write path has to retry
        // and eventually quarantine.
        const Block cur = sys.nvmDevice().readFunctional(rec.victim);
        sys.core().store(rec.victim, cur.data(), blockSize);
        sys.core().clwb(rec.victim);
        sys.core().sfence();
        sys.core().compute(1'000'000);
        sys.controller().drainTo(sys.core().now());
        return;
    }
    // A stuck cell is *expected* to read back as quarantined zeros —
    // the graceful-degradation contract, not a violation — so that
    // load bypasses any attached oracle. Every other provoking load
    // stays adjudicated.
    CoreObserver *const observer = sys.core().currentObserver();
    if (kind == FaultKind::MediaStuck)
        sys.core().setObserver(nullptr);
    Block buf;
    sys.core().load(rec.victim, buf.data(), blockSize);
    sys.core().setObserver(observer);
}

FaultVerdict
FaultEpisode::judge(const workloads::RunResult &res,
                    const OracleReport &report) const
{
    FaultVerdict v;
    v.crashed = res.crashed;
    v.structureVerified = res.verified;
    v.attackDetected = sys.attackDetected();
    v.oracleViolations = report.violations;
    const bool clean = res.verified && report.clean() && !v.attackDetected;
    switch (kind) {
      case FaultKind::None:
        v.passed = clean;
        if (!v.passed)
            v.note = res.verified ? report.summary() : res.verifyDiagnostic;
        break;
      case FaultKind::DroppedClwb:
        // Losing a flush is a software/platform bug: it must never
        // masquerade as an attack.
        v.passed = !v.attackDetected;
        if (report.violations > 0 || !res.verified)
            v.note = "oracle caught the dropped flush";
        break;
      case FaultKind::MediaTransient:
        // A one-shot device flip must be healed by the bounded retry.
        v.passed = clean && !sys.unrecoverableMedia();
        if (!v.passed)
            v.note = "transient media fault not healed: " +
                     report.summary();
        break;
      case FaultKind::MediaStuck:
      case FaultKind::MediaWriteFail:
        // An unhealable cell must be disambiguated from tamper: the
        // block is quarantined (unrecoverable media, NOT an attack
        // alarm) and every healthy block still verifies.
        v.passed = !v.attackDetected && report.clean() &&
                   (!rec.injected || sys.unrecoverableMedia());
        if (!v.passed)
            v.note = v.attackDetected
                         ? "media fault misreported as attack"
                         : "quarantine missing or collateral damage: " +
                               report.summary();
        break;
      default:
        // Silent corruption fails the episode; a fault with nothing
        // to corrupt (e.g. no tail to tear off) is absorbed cleanly.
        v.passed = v.attackDetected || (res.verified && report.clean());
        if (!v.passed)
            v.note = "silent corruption: " + report.summary();
        break;
    }
    if (rec.kind != FaultKind::None && !rec.detail.empty() &&
        v.note.empty())
        v.note = rec.detail;
    return v;
}

} // namespace dolos::verify
