/**
 * @file
 * Crash-point sweep implementation.
 */

#include "verify/sweep_driver.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "sim/crash_points.hh"
#include "sim/heartbeat.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "verify/campaign.hh"
#include "verify/fault_injector.hh"
#include "workloads/pmem.hh"

namespace dolos::verify
{

namespace
{

SystemConfig
configFor(const SweepOptions &opt)
{
    SystemConfig cfg = opt.base;
    cfg.mode = opt.mode;
    return cfg;
}

/** eADR flush microsteps encode (anchor_op << 24) | firing. */
constexpr std::uint64_t kFlushAnchorShift = 24;
constexpr std::uint64_t kFlushFiringMask = (1ull << kFlushAnchorShift) - 1;

/**
 * A probe machine: the sweep's machine and workload, set up and ready
 * for the measured run. Probes replay the same deterministic machine
 * the crash points later arm against, and count from the end of setup,
 * the same origin runWorkload arms against.
 */
struct Probe
{
    explicit Probe(const SweepOptions &opt)
        : sys(configFor(opt)),
          workload(workloads::makeWorkload(opt.workload, opt.params)),
          env(sys)
    {
        workload->setup(env);
        ops0 = env.opCount();
    }

    /** Environment operations of the measured run so far. */
    std::uint64_t ops() const { return env.opCount() - ops0; }

    /**
     * Run the measured transactions under the installed op hook, if
     * any. Returns false when the hook stopped the run with
     * CrashRequested.
     */
    bool
    run(std::uint64_t num_tx)
    {
        bool finished = true;
        try {
            for (std::uint64_t i = 0; i < num_tx; ++i)
                workload->transaction(env, i);
        } catch (const workloads::CrashRequested &) {
            finished = false;
        }
        env.setOpHook(nullptr);
        return finished;
    }

    System sys;
    std::unique_ptr<workloads::Workload> workload;
    workloads::PmemEnv env;
    std::uint64_t ops0 = 0;
};

/** Probe run: total environment operations of the measured run. */
std::uint64_t
measuredOps(const SweepOptions &opt)
{
    Probe probe(opt);
    probe.run(opt.numTx);
    return probe.ops();
}

/**
 * eADR probe: run to @p anchor_op, kill power there, and count how
 * many crash points fire *inside* the crash path (grace drains plus
 * the holdup flush). Every recorded firing index is a valid arm()
 * target for CrashPlan::atFlushMicrostep at the same anchor, because
 * the armed run replays the identical deterministic machine. Returns
 * 0 when the anchor lies beyond the run (nothing to enumerate).
 */
std::uint64_t
probeFlushFirings(const SweepOptions &opt, std::uint64_t anchor_op)
{
    Probe probe(opt);
    probe.env.setOpHook([&probe, anchor_op] {
        if (probe.ops() >= anchor_op)
            throw workloads::CrashRequested{};
    });
    if (probe.run(opt.numTx))
        return 0;
    auto &reg = crashpoint::Registry::instance();
    reg.reset();
    reg.enableCounting();
    probe.sys.crash(/*mid_operation=*/false);
    const std::uint64_t firings = reg.firings();
    reg.reset();
    return firings;
}

const char *
pointSetName(CrashPoints p)
{
    switch (p) {
      case CrashPoints::WpqBoundaries: return "wpq-boundaries";
      case CrashPoints::EveryOp: return "every-op";
      case CrashPoints::Microstep: return "microstep";
    }
    return "unknown";
}

} // namespace

SystemConfig
crashTestConfig(SecurityMode mode)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    cfg.secure.functionalLeaves = 8192;
    cfg.secure.map.protectedBytes = Addr(8192) * pageBytes;
    cfg.hierarchy.l1 = {"l1", 1024, 2, 2};
    cfg.hierarchy.l2 = {"l2", 4096, 4, 20};
    cfg.hierarchy.llc = {"llc", 16384, 8, 32};
    return cfg;
}

workloads::WorkloadParams
crashTestParams(std::uint64_t seed)
{
    workloads::WorkloadParams p;
    p.txSize = 256;
    p.numKeys = 48;
    p.seed = seed;
    p.thinkTime = 400;
    p.readsPerTx = 1;
    return p;
}

std::string
SweepResult::firstFailure() const
{
    for (const auto &p : points) {
        if (p.passed())
            continue;
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "crash-op %llu%s%s: structure=%d attack=%d "
                      "fired=%d, ",
                      (unsigned long long)p.crashOp,
                      p.microstep.empty() ? "" : " step=",
                      p.microstep.c_str(), int(p.structureVerified),
                      int(p.attackDetected), int(p.crashFired));
        return buf + p.oracle.summary();
    }
    return {};
}

OracleReport
SweepResult::oracleTotals() const
{
    OracleReport total;
    for (const auto &p : points) {
        total.blocksScanned += p.oracle.blocksScanned;
        total.committedBytes += p.oracle.committedBytes;
        total.inFlightBytes += p.oracle.inFlightBytes;
        total.untouchedBytes += p.oracle.untouchedBytes;
        total.violations += p.oracle.violations;
    }
    return total;
}

std::string
describeSweep(const SweepOptions &opt)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "mode=%s workload=%s numTx=%llu seed=%llu sampleSeed=%llu "
        "points=%s%s recoveryCrashStep=%s%s",
        securityModeName(opt.mode), opt.workload.c_str(),
        (unsigned long long)opt.numTx,
        (unsigned long long)opt.params.seed,
        (unsigned long long)opt.sampleSeed,
        pointSetName(opt.pointSet),
        opt.budget ? "" : " (exhaustive)",
        opt.recoveryCrashStep
            ? std::to_string(*opt.recoveryCrashStep).c_str()
            : "none",
        opt.metadataFaults ? " meta-faults" : "");
    return buf;
}

std::vector<std::uint64_t>
enumerateWpqBoundaries(const SweepOptions &opt)
{
    // Record, during the measured run only, every environment
    // operation after which the controller had accepted new writes.
    Probe probe(opt);
    std::vector<std::uint64_t> boundaries;
    std::uint64_t writes_seen = probe.sys.controller().writeRequests();
    probe.env.setOpHook([&] {
        const std::uint64_t w = probe.sys.controller().writeRequests();
        if (w != writes_seen) {
            writes_seen = w;
            boundaries.push_back(probe.ops());
        }
    });
    probe.run(opt.numTx);
    return boundaries;
}

std::vector<std::uint64_t>
enumerateCrashPoints(const SweepOptions &opt)
{
    if (opt.pointSet == CrashPoints::WpqBoundaries)
        return enumerateWpqBoundaries(opt);

    if (opt.pointSet == CrashPoints::Microstep &&
        modeTraits(opt.mode).eadrDomain) {
        // eADR: the interesting microsteps fire inside crash()
        // itself — the holdup flush. Pick a few anchor operations
        // across the run (the flush's contents change with the dirty
        // working set, not with every op), probe each anchor's
        // in-crash firing count, and enumerate every firing at every
        // anchor as (anchor_op << 24) | firing.
        const std::uint64_t total = measuredOps(opt);
        if (total == 0)
            return {};
        std::vector<std::uint64_t> anchors = {
            std::max<std::uint64_t>(1, total / 3),
            std::max<std::uint64_t>(1, 2 * total / 3), total};
        std::sort(anchors.begin(), anchors.end());
        anchors.erase(std::unique(anchors.begin(), anchors.end()),
                      anchors.end());

        std::vector<std::uint64_t> points;
        for (const std::uint64_t anchor : anchors) {
            const std::uint64_t firings = probeFlushFirings(opt, anchor);
            DOLOS_ASSERT(firings <= kFlushFiringMask,
                         "eADR flush fired %llu points at anchor %llu "
                         "(encoding holds < 2^24)",
                         (unsigned long long)firings,
                         (unsigned long long)anchor);
            for (std::uint64_t f = 0; f < firings; ++f)
                points.push_back((anchor << kFlushAnchorShift) | f);
        }
        return points;
    }

    if (opt.pointSet == CrashPoints::Microstep) {
        // Probe run with the crash-point registry counting (never
        // throwing): every firing index it records is a valid arm()
        // target.
        auto &reg = crashpoint::Registry::instance();
        Probe probe(opt);
        reg.reset();
        reg.enableCounting();
        probe.run(opt.numTx);
        const std::uint64_t total = reg.firings();
        reg.reset();

        std::vector<std::uint64_t> points;
        points.reserve(std::size_t(total));
        for (std::uint64_t idx = 0; idx < total; ++idx)
            points.push_back(idx);
        return points;
    }

    // Every-op sweep: probe run counts the measured run's operations;
    // a crash can then land after any one of them.
    const std::uint64_t total = measuredOps(opt);
    std::vector<std::uint64_t> points;
    points.reserve(std::size_t(total));
    for (std::uint64_t op = 1; op <= total; ++op)
        points.push_back(op);
    return points;
}

CrashPointResult
runCrashPoint(const SweepOptions &opt, std::uint64_t crash_op)
{
    System sys(configFor(opt));
    GoldenModel golden;
    sys.core().setObserver(&golden);

    const auto workload = workloads::makeWorkload(opt.workload, opt.params);
    const bool eadr = modeTraits(opt.mode).eadrDomain;
    const bool eadr_flush =
        eadr && opt.pointSet == CrashPoints::Microstep;
    workloads::CrashPlan plan;
    if (eadr_flush) {
        // Decode (anchor_op << 24) | firing: crash at the anchor,
        // then kill the holdup flush at that in-crash firing.
        plan.atOp = crash_op >> kFlushAnchorShift;
        plan.atFlushMicrostep = crash_op & kFlushFiringMask;
    } else if (opt.pointSet == CrashPoints::Microstep) {
        plan.atMicrostep = crash_op;
    } else {
        plan.atOp = crash_op;
    }
    plan.recoveryCrashStep = opt.recoveryCrashStep;
    if (opt.metadataFaults) {
        // After the power dies, stick one metadata bit before the
        // machine reboots — the worst moment: the volatile truth is
        // gone and recovery itself must disambiguate wear from
        // tamper. The region rotates with the crash op so one sweep
        // covers all three repair paths.
        plan.atPowerOff = [&opt, crash_op](System &s) {
            static constexpr NvmRegion regions[] = {
                NvmRegion::Counter, NvmRegion::Tree, NvmRegion::Mac};
            FaultInjector inj(s, opt.sampleSeed ^ (crash_op * 0x9e37ULL));
            inj.injectMediaStuck(regions[crash_op % 3]);
        };
    }
    const auto res =
        workloads::runWorkload(sys, *workload, opt.numTx, plan);

    CrashPointResult out;
    out.crashOp = crash_op;
    out.structureVerified = res.verified;
    out.attackDetected = sys.attackDetected();
    out.recoveryAttempts = res.recoveryAttempts;
    if (opt.pointSet == CrashPoints::Microstep) {
        // A probe-enumerated firing index must fire in the armed
        // replay — a silent miss means the machines diverged, which
        // is itself a failure the sweep must surface.
        auto &reg = crashpoint::Registry::instance();
        out.crashFired = res.crashed && reg.crashFired();
        if (const auto step = reg.firedStep())
            out.microstep = crashpoint::stepName(*step);
        reg.reset();
    }
    // eADR: an under-provisioned (or interrupted) holdup flush
    // quarantines the lines it could not cover — a declared,
    // attributed loss the oracle must not count as divergence. The
    // skip set excludes exactly the quarantined blocks; every
    // surviving block must still match the golden committed prefix.
    out.expectedLoss = eadr && sys.nvmDevice().quarantineCount() != 0;
    out.oracle = (opt.metadataFaults || eadr)
                     ? checkAgainstGolden(sys, golden,
                                          mediaSkipSet(sys, golden))
                     : checkAgainstGolden(sys, golden);
    sys.core().setObserver(nullptr);
    return out;
}

SweepResult
sweepCrashPoints(const SweepOptions &opt)
{
    SweepResult result;
    result.boundaries = enumerateCrashPoints(opt);

    // Select the points to run: all of them, or a budgeted sample
    // that is evenly strided with a seeded start so repeated CI runs
    // with different seeds cover different slices.
    std::vector<std::uint64_t> chosen;
    const std::size_t n = result.boundaries.size();
    if (opt.budget == 0 || opt.budget >= n) {
        chosen = result.boundaries;
    } else {
        Random rng(opt.sampleSeed ^ 0x5eeb0a2dULL);
        chosen.push_back(result.boundaries.front());
        if (opt.budget >= 2)
            chosen.push_back(result.boundaries.back());
        const std::size_t middle = opt.budget > 2 ? opt.budget - 2 : 0;
        if (middle > 0 && n > 2) {
            const std::size_t span = n - 2;
            const double stride = double(span) / double(middle);
            const std::size_t offset = rng.below(std::max<std::uint64_t>(
                1, std::uint64_t(stride)));
            for (std::size_t k = 0; k < middle; ++k) {
                std::size_t pos =
                    1 + std::size_t(stride * double(k)) + offset;
                pos = std::min(pos, n - 2);
                chosen.push_back(result.boundaries[pos]);
            }
        }
        std::sort(chosen.begin(), chosen.end());
        chosen.erase(std::unique(chosen.begin(), chosen.end()),
                     chosen.end());
    }

    CampaignMonitor monitor("sweep", chosen.size(),
                            opt.heartbeatEvery);
    result.points.resize(chosen.size());
    runCampaign(chosen.size(), opt.jobs, monitor, [&](std::size_t k) {
        result.points[k] = runCrashPoint(opt, chosen[k]);
        return CaseVerdict{chosen[k], !result.points[k].passed()};
    });
    if (opt.heartbeatEvery)
        monitor.finish();
    result.summary = monitor.summary();
    return result;
}

} // namespace dolos::verify
