#include "verify/manifest_check.hh"

#include <sstream>

#include "dolos/system.hh"
#include "sim/persist_annotations.hh"

namespace dolos::verify
{

namespace
{

/** Deterministic xorshift64* stream for the traffic mix. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed ? seed : 1) {}

    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dULL;
    }

  private:
    std::uint64_t state;
};

/**
 * Drive a store/CLWB/SFENCE/load mix that populates every layer of
 * the machine, then finish with an unfenced CLWB burst so the crash
 * finds outstanding persist tickets and undrained WPQ entries.
 */
void
driveTraffic(System &sys, std::uint64_t seed)
{
    constexpr Addr heap_base = 0x10000;
    constexpr unsigned working_set = 64; ///< distinct blocks
    Rng rng(seed);
    auto &core = sys.core();

    for (unsigned i = 0; i < 96; ++i) {
        const std::uint64_t r = rng.next();
        const Addr addr = heap_base + (r % working_set) * blockSize;
        const std::uint64_t value = r ^ (std::uint64_t(i) << 48);
        switch (r % 5) {
          case 0:
          case 1:
            core.store(addr, &value, sizeof(value));
            core.clwb(addr);
            break;
          case 2:
            core.store(addr, &value, sizeof(value));
            break;
          case 3: {
            std::uint64_t out = 0;
            core.load(addr, &out, sizeof(out));
            break;
          }
          default:
            core.compute(5);
            break;
        }
        if (i % 17 == 16)
            core.sfence();
    }

    // Unfenced tail burst: these CLWBs are in flight at power-off.
    for (unsigned i = 0; i < 8; ++i) {
        const std::uint64_t r = rng.next();
        const Addr addr = heap_base + (r % working_set) * blockSize;
        core.store(addr, &r, sizeof(r));
        core.clwb(addr);
    }
}

std::string
truncate(const std::string &s)
{
    constexpr std::size_t limit = 96;
    if (s.size() <= limit)
        return s;
    std::ostringstream os;
    os << s.substr(0, limit) << "...(" << s.size() << " chars)";
    return os.str();
}

} // namespace

ManifestCheckResult
verifyCrashManifest(SecurityMode mode, std::uint64_t seed)
{
    ManifestCheckResult res;
    res.mode = mode;

    SystemConfig cfg = SystemConfig::paperDefault();
    cfg.mode = mode;

    System dirty(cfg);
    System pristine(cfg);

    driveTraffic(dirty, seed);

    // The pristine machine's post-crash state is the canonical reset
    // value of every volatile field.
    pristine.crash();
    const auto pristine_manifests = pristine.collectStateManifests();

    // Quiesce in-window drains at the crash tick so the pre-crash
    // snapshot and crash() observe the same drain frontier (the
    // drain pipeline is idempotent at a fixed tick). In eADR mode
    // crash() is not a pure power-off: a non-empty holdup flush
    // legitimately advances PERSISTENT engine state (counters, BMT,
    // ciphertext), so flush the caches through the ordinary persist
    // path first — the holdup flush then finds nothing and the
    // differential compares a pure reset.
    if (modeTraits(mode).eadrDomain) {
        dirty.hierarchy().flushAll(dirty.core().now());
        // The flushed lines enter the WPQ with transit latency, so
        // draining "to now" would leave them undrained and the
        // holdup flush non-empty; run the drain pipeline far enough
        // ahead to retire every enqueued write.
        dirty.controller().drainTo(dirty.core().now() + 50'000'000);
    }
    dirty.controller().drainTo(dirty.core().now());

    const auto manifests = dirty.collectStateManifests();
    res.manifests = manifests.size();

    if (manifests.size() != pristine_manifests.size()) {
        res.mismatches.push_back(
            {"<structure>", "persistent",
             "dirty and pristine machines register different "
             "manifest counts"});
        return res;
    }

    // Pre-crash snapshot of every non-delegated field.
    std::vector<std::vector<std::string>> pre(manifests.size());
    for (std::size_t i = 0; i < manifests.size(); ++i)
        for (const auto &f : manifests[i].fields())
            pre[i].push_back(f.delegated ? std::string() : f.snapshot());

    dirty.crash();

    for (std::size_t i = 0; i < manifests.size(); ++i) {
        const auto &m = manifests[i];
        const auto &pm = pristine_manifests[i];
        if (m.className() != pm.className() ||
            m.fields().size() != pm.fields().size()) {
            res.mismatches.push_back(
                {m.className(), "persistent",
                 "manifest structure differs from pristine machine"});
            continue;
        }
        for (std::size_t j = 0; j < m.fields().size(); ++j) {
            const auto &f = m.fields()[j];
            if (f.delegated) {
                ++res.delegatedFields;
                continue;
            }
            ++res.fieldsChecked;
            const std::string post = f.snapshot();
            if (f.check) {
                if (!f.check())
                    res.mismatches.push_back(
                        {m.label(f), persist::kindName(f.kind),
                         "custom rule failed: " + f.rule +
                             "; observed " + truncate(post)});
                continue;
            }
            if (f.kind == persist::Kind::Persistent) {
                if (post != pre[i][j])
                    res.mismatches.push_back(
                        {m.label(f), "persistent",
                         "did not round-trip: pre " +
                             truncate(pre[i][j]) + " vs post " +
                             truncate(post)});
            } else {
                const std::string reset = pm.fields()[j].snapshot();
                if (post != reset)
                    res.mismatches.push_back(
                        {m.label(f), "volatile",
                         "not reset: expected " + truncate(reset) +
                             ", observed " + truncate(post)});
            }
        }
    }

    // The crash this check performs must itself be survivable.
    const auto rec = dirty.recoverToCompletion();
    res.recoveryVerified = rec.misuVerified &&
                           rec.engine.rootVerified &&
                           !dirty.attackDetected();
    return res;
}

std::vector<ManifestCheckResult>
verifyCrashManifestAllModes(std::uint64_t seed)
{
    std::vector<ManifestCheckResult> out;
    for (const auto mode :
         {SecurityMode::DolosFullWpq, SecurityMode::DolosPartialWpq,
          SecurityMode::DolosPostWpq, SecurityMode::EadrSecure})
        out.push_back(verifyCrashManifest(mode, seed));
    return out;
}

std::string
formatManifestReport(const ManifestCheckResult &res)
{
    std::ostringstream os;
    os << "manifest check [" << securityModeName(res.mode) << "]: "
       << res.fieldsChecked << " fields across " << res.manifests
       << " manifests (" << res.delegatedFields << " delegated), "
       << "recovery " << (res.recoveryVerified ? "ok" : "FAILED")
       << ", " << res.mismatches.size() << " mismatch(es)\n";
    for (const auto &mm : res.mismatches)
        os << "  MISMATCH " << mm.field << " [" << mm.kind << "]: "
           << mm.detail << "\n";
    return os.str();
}

} // namespace dolos::verify
