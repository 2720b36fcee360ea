/**
 * @file
 * dolos_torture — the crash and fault campaign tool: randomized
 * compound-failure campaigns with automatic trace minimization, crash
 * sweeps, and one-fault episodes.
 *
 * Torture episodes interleave many failures: stores, flushes, fences,
 * repeated power failures, power failures *during recovery*, and NVM
 * media faults (transient flips, stuck cells, failed writes), all
 * driven from a seeded op program against the GoldenModel
 * committed-prefix oracle. Blocks a schedule deliberately destroys
 * (stuck cells / failed writes) are excluded from the oracle sweep;
 * everything else must hold.
 *
 * On failure the driver delta-debugs (ddmin) the op program down to a
 * minimal schedule that still fails and prints a one-line repro:
 *
 *   REPRO: dolos_torture --mode M --replay w:3:42,f:3,s,c
 *
 * Ops: w:SLOT:VAL store | f:SLOT clwb | s sfence | c crash+recover |
 *      r:K crash, then power dies K steps into recovery |
 *      m:K arm a microstep crash K persist-path crash-point firings
 *          from now (power dies *inside* a drain's security work;
 *          see sim/crash_points.hh) |
 *      t:SLOT:BIT transient read flip | k:SLOT:BIT stuck-at cell |
 *      x:SLOT:N next N writes to the block fail |
 *      FC:SLOT:BIT stuck-at cell in the slot's *counter block* |
 *      FB:SLOT:BIT stuck-at cell in a tree node on the slot's path |
 *      FM:SLOT:BIT stuck-at cell in the slot's *MAC block*
 *
 * Fault episodes (--faults / --fault) run one of the six workloads on
 * one controller organization, crash it inside the run, and put ONE
 * fault around it (verify::FaultEpisode), judged by the fault kind's
 * contract. A failed episode prints
 *
 *   REPRO: dolos_torture --mode M --workload W --seed S --crash-op N
 *          --fault F --opt-knobs K
 *
 * Every action runs on the small crash-test machine
 * (verify::crashTestConfig). Exactly one action per run:
 *   dolos_torture --campaign 20 --seed 7 [--mode dolos-full]
 *   dolos_torture --replay SPEC [--plant-bug drop-clwb:K]
 *   dolos_torture --expect-bug 20      (meta-test: plant a CLWB drop,
 *                                       then a counter-repair bug; each
 *                                       must minimize to ≤20 ops)
 *   dolos_torture --sweep --points every-op|wpq|microstep
 *                 [--recovery-crash K] [--meta-faults]
 *   dolos_torture --faults 2           (2 episodes per mode+workload)
 *   dolos_torture --fault F --mode M --workload W --seed S [--crash-op N]
 *
 * Exit codes follow sim/exit_codes.hh: 0 ok, 1 oracle violation,
 * 2 usage, 3 attack alarm, 4 unrecoverable media.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "secure/address_map.hh"
#include "secure/merkle_tree.hh"
#include "sim/cli.hh"
#include "sim/crash_points.hh"
#include "sim/exit_codes.hh"
#include "sim/heartbeat.hh"
#include "sim/random.hh"
#include "sim/thread_annotations.hh"
#include "verify/campaign.hh"
#include "verify/diff_oracle.hh"
#include "verify/fault_injector.hh"
#include "verify/sweep_driver.hh"
#include "workloads/runner.hh"

using namespace dolos;
using namespace dolos::verify;

namespace
{

constexpr unsigned numSlots = 24;
constexpr Addr slotBase = 0x20000; // inside the workload heap region

Addr
slotAddr(unsigned slot)
{
    return slotBase + Addr(slot % numSlots) * blockSize;
}

/**
 * One schedule operation (see file header for the grammar). The
 * metadata-fault ops FC/FB/FM are stored with kind 'C'/'B'/'M' and
 * round-trip through format/parse with their two-char spelling.
 */
struct Op
{
    char kind = 'w';
    unsigned a = 0;      ///< slot / recovery step
    std::uint64_t b = 0; ///< value / bit / count
};

/** What --plant-bug plants (the --expect-bug meta-test's quarry). */
struct PlantSpec
{
    std::optional<std::uint64_t> clwbDrop; ///< drop the K-th CLWB
    bool badCounterRepair = false; ///< counter repair adopts garbage
};

/** Parse a --plant-bug spec: drop-clwb:K or bad-counter-repair. */
std::optional<PlantSpec>
parsePlantSpec(const std::string &spec)
{
    PlantSpec plant;
    if (spec == "bad-counter-repair") {
        plant.badCounterRepair = true;
        return plant;
    }
    if (spec.rfind("drop-clwb:", 0) != 0)
        return std::nullopt;
    plant.clwbDrop = parseCliNumber(spec.substr(10));
    if (!plant.clwbDrop)
        return std::nullopt;
    return plant;
}

struct Outcome
{
    bool failed = false;
    bool attack = false;
    std::uint64_t violations = 0;
    std::size_t quarantined = 0;
    unsigned recoveryBoots = 0; ///< extra boots forced by r: ops
    std::string note;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: dolos_torture ACTION [options]   (exactly one action)\n"
        "       dolos_torture --campaign N [--ops N] [--seed N]"
        " [--mode MODE]\n"
        "       dolos_torture --replay SPEC [--plant-bug drop-clwb:K]\n"
        "       dolos_torture --expect-bug MAXOPS [--seed N]\n"
        "       dolos_torture --sweep [--workload W] [--budget N]"
        " [--txns N]\n"
        "                     [--points every-op|wpq|microstep] "
        "[--recovery-crash K]\n"
        "       dolos_torture --faults N [--seed N] [--txns N]\n"
        "       dolos_torture --fault F [--mode MODE] [--workload W]"
        " [--seed N] [--crash-op N]\n"
        "  --mode MODE   %s\n"
        "  SPEC          comma-separated ops: w:SLOT:VAL f:SLOT s c"
        " r:K m:K t:SLOT:BIT k:SLOT:BIT x:SLOT:N\n"
        "                FC:SLOT:BIT FB:SLOT:BIT FM:SLOT:BIT "
        "(stuck-at in counter/tree/MAC metadata)\n"
        "                m:K arms a power failure K persist-path "
        "crash-point firings ahead (dolos-*|eadr)\n"
        "  --points microstep sweeps the named persist-path crash "
        "points (dolos-*; eadr sweeps its\n"
        "                power-fail holdup flush instead)\n"
        "  --faults N    N one-fault episodes per mode and workload, "
        "each crashed inside its run\n"
        "  --fault F     one episode: none|data-flip|mac-flip|"
        "counter-rollback|bmt-flip|\n"
        "                torn-adr-dump|dropped-clwb|media-transient|"
        "media-stuck|media-write-fail\n"
        "                (--crash-op defaults to the campaign's draw "
        "for --seed)\n"
        "  --eadr-budget N\n"
        "                eADR holdup energy budget in cycles "
        "(nonzero; default covers a full flush)\n"
        "  --plant-bug   drop-clwb:K | bad-counter-repair\n"
        "  --meta-faults (sweep) stick a metadata bit at every crash "
        "point\n"
        "  --opt-knobs   BMT update pipeline for every episode: "
        "all (default) | none\n"
        "  --heartbeat N emit an NDJSON progress record to stderr "
        "every N cases\n"
        "                (campaigns and sweep; default 5, 0 = off)\n"
        "  --jobs N      worker threads for campaign episodes and "
        "sweep crash points\n"
        "                (default 1; verdicts are bit-identical to "
        "--jobs 1)\n"
        "  --summary-json FILE\n"
        "                write the campaign-summary record to FILE\n",
        securityModeCliNames().c_str());
    std::exit(code);
}

/**
 * The BMT update pipeline lever (--opt-knobs), applied to every
 * configuration the harness builds: campaigns, replays, planted-bug
 * hunts, sweeps and fault episodes all torture the same machine.
 */
DOLOS_THREAD_LOCAL_OK; // parsed in main() before any worker starts
bool gBmtPipeline = true;

/**
 * eADR holdup energy budget override (--eadr-budget). Validated
 * nonzero at parse time; the config validator would reject 0 anyway,
 * but a CLI typo deserves a CLI-shaped error.
 */
DOLOS_THREAD_LOCAL_OK; // parsed in main() before any worker starts
std::optional<std::uint64_t> gEadrBudget;

SystemConfig
tortureConfig(SecurityMode mode)
{
    auto cfg = crashTestConfig(mode);
    if (gEadrBudget)
        cfg.eadr.energyBudgetCycles = *gEadrBudget;
    cfg.secure.bmtPipeline = gBmtPipeline;
    return cfg;
}

/** The machine options every repro line spells out. */
std::string
machineArgs()
{
    std::string args;
    if (gEadrBudget)
        args = " --eadr-budget " + std::to_string(*gEadrBudget);
    // Always name the lever state: a repro line recorded before a
    // default flip must rebuild the same machine after it.
    return args + " --opt-knobs " + pipelineSpecName(gBmtPipeline);
}

/** A sweep of @p workload on the crash-test machine. */
SweepOptions
crashTestSweep(SecurityMode mode, const std::string &workload,
               std::uint64_t txns, std::uint64_t seed)
{
    SweepOptions opt;
    opt.mode = mode;
    opt.workload = workload;
    opt.numTx = txns;
    opt.base = tortureConfig(mode);
    opt.params = crashTestParams(seed);
    return opt;
}

std::string
formatOps(const std::vector<Op> &ops)
{
    std::string out;
    char buf[48];
    for (const Op &op : ops) {
        if (!out.empty())
            out += ",";
        switch (op.kind) {
          case 'w':
            std::snprintf(buf, sizeof(buf), "w:%u:%llu", op.a,
                          (unsigned long long)op.b);
            break;
          case 'f':
            std::snprintf(buf, sizeof(buf), "f:%u", op.a);
            break;
          case 's':
            std::snprintf(buf, sizeof(buf), "s");
            break;
          case 'c':
            std::snprintf(buf, sizeof(buf), "c");
            break;
          case 'r':
            std::snprintf(buf, sizeof(buf), "r:%u", op.a);
            break;
          case 'm':
            std::snprintf(buf, sizeof(buf), "m:%u", op.a);
            break;
          case 'C':
          case 'B':
          case 'M':
            std::snprintf(buf, sizeof(buf), "F%c:%u:%llu", op.kind,
                          op.a, (unsigned long long)op.b);
            break;
          default:
            std::snprintf(buf, sizeof(buf), "%c:%u:%llu", op.kind,
                          op.a, (unsigned long long)op.b);
            break;
        }
        out += buf;
    }
    return out;
}

std::optional<std::vector<Op>>
parseOps(const std::string &spec)
{
    std::vector<Op> ops;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string tok = spec.substr(pos, end - pos);
        pos = end + 1;
        if (tok.empty())
            continue;
        Op op;
        op.kind = tok[0];
        std::size_t skip = 1;
        if (op.kind == 'F') {
            // Two-char metadata-fault ops: FC / FB / FM.
            if (tok.size() < 2)
                return std::nullopt;
            op.kind = tok[1];
            if (op.kind != 'C' && op.kind != 'B' && op.kind != 'M')
                return std::nullopt;
            skip = 2;
        }
        unsigned a = 0;
        unsigned long long b = 0;
        const int fields =
            std::sscanf(tok.c_str() + skip, ":%u:%llu", &a, &b);
        op.a = a;
        op.b = b;
        switch (op.kind) {
          case 's':
          case 'c':
            if (fields > 0)
                return std::nullopt;
            break;
          case 'f':
          case 'r':
          case 'm':
            if (fields < 1)
                return std::nullopt;
            break;
          case 'w':
          case 't':
          case 'k':
          case 'x':
          case 'C':
          case 'B':
          case 'M':
            if (fields < 2)
                return std::nullopt;
            break;
          default:
            return std::nullopt;
        }
        ops.push_back(op);
    }
    return ops;
}

/**
 * Seeded op-program generator (weights favor stores + crashes).
 * @p microstep_ops adds the m:K microstep-crash op to the mix —
 * Dolos modes (the ADR dump re-drains what the interrupted engine
 * left behind) and eADR (the holdup flush quarantines whatever it
 * could not cover); mid-engine crashes are unreconcilable elsewhere.
 */
std::vector<Op>
genProgram(std::uint64_t seed, unsigned len, bool microstep_ops)
{
    Random rng(seed ^ 0x7047'7042ULL);
    std::vector<Op> ops;
    ops.reserve(len);
    for (unsigned i = 0; i < len; ++i) {
        const std::uint64_t r = rng.below(microstep_ops ? 105 : 100);
        Op op;
        if (r >= 100) {
            // Arm a microstep crash a short (seeded) number of
            // crash-point firings ahead; the next drain-heavy op
            // trips it.
            op = {'m', unsigned(rng.below(48)), 0};
        } else if (r < 44) {
            op = {'w', unsigned(rng.below(numSlots)), rng.below(256)};
        } else if (r < 60) {
            op = {'f', unsigned(rng.below(numSlots)), 0};
        } else if (r < 71) {
            op = {'s', 0, 0};
        } else if (r < 79) {
            op = {'c', 0, 0};
        } else if (r < 85) {
            op = {'r', unsigned(rng.below(4)), 0};
        } else if (r < 89) {
            op = {'t', unsigned(rng.below(numSlots)),
                  rng.below(blockSize * 8)};
        } else if (r < 92) {
            op = {'k', unsigned(rng.below(numSlots)),
                  rng.below(blockSize * 8)};
        } else if (r < 95) {
            op = {'x', unsigned(rng.below(numSlots)),
                  1 + rng.below(5)};
        } else if (r < 97) {
            op = {'C', unsigned(rng.below(numSlots)),
                  rng.below(blockSize * 8)};
        } else if (r < 99) {
            op = {'B', unsigned(rng.below(numSlots)),
                  rng.below(blockSize * 8)};
        } else {
            op = {'M', unsigned(rng.below(numSlots)),
                  rng.below(blockSize * 8)};
        }
        ops.push_back(op);
    }
    return ops;
}

/**
 * Execute one op program on a fresh machine and adjudicate it against
 * the golden model. Fully deterministic: the schedule *is* the
 * episode; no randomness is consumed at execution time.
 */
Outcome
runProgram(SecurityMode mode, const std::vector<Op> &ops,
           const PlantSpec &plant)
{
    Outcome out;
    SystemConfig cfg = tortureConfig(mode);
    cfg.secure.plantCounterRepairBug = plant.badCounterRepair;
    System sys(cfg);
    GoldenModel golden;
    sys.core().setObserver(&golden);
    if (plant.clwbDrop)
        sys.core().armClwbDrop(*plant.clwbDrop);

    // Microstep arming (the m:K op): firing indices are counted by
    // the global registry, reset here so minimized replays see the
    // same counts a campaign episode did.
    auto &creg = crashpoint::Registry::instance();
    creg.reset();

    // Stick a cell at the complement of its stored value so the fault
    // is visible on the very next read of @p addr.
    const auto stickBit = [&sys](Addr addr, std::uint64_t raw_bit) {
        const unsigned bit = unsigned(raw_bit) % (blockSize * 8);
        const Block stored = sys.nvmDevice().readFunctional(addr);
        const bool current =
            stored[bit / 8] & std::uint8_t(1u << (bit % 8));
        sys.nvmDevice().injectStuckBit(addr, bit, !current);
    };

    for (const Op &op : ops) {
        try {
        switch (op.kind) {
          case 'w': {
            Block data;
            for (unsigned i = 0; i < blockSize; ++i)
                data[i] = std::uint8_t(op.b ^ (i * 37) ^ op.a);
            sys.core().store(slotAddr(op.a), data.data(), blockSize);
            break;
          }
          case 'f':
            sys.core().clwb(slotAddr(op.a));
            break;
          case 's':
            sys.core().sfence();
            break;
          case 'c': {
            sys.crash();
            unsigned boots = 0;
            sys.recoverToCompletion(&boots);
            out.recoveryBoots += boots - 1;
            break;
          }
          case 'r': {
            // Compound failure: power dies again op.a steps into the
            // recovery; recoverToCompletion keeps power-cycling.
            sys.controller().armRecoveryCrash(op.a);
            sys.crash();
            unsigned boots = 0;
            sys.recoverToCompletion(&boots);
            out.recoveryBoots += boots - 1;
            break;
          }
          case 'm':
            // Arm a microstep crash op.a crash-point firings from
            // now; whichever later op (or even a crash/recovery
            // re-drain) reaches that firing throws MicrostepCrash,
            // handled below like a power failure.
            creg.arm(creg.firings() + op.a);
            break;
          case 't':
            sys.nvmDevice().injectTransientFlip(slotAddr(op.a),
                                                unsigned(op.b));
            break;
          case 'k':
            stickBit(slotAddr(op.a), op.b);
            break;
          case 'x':
            sys.nvmDevice().injectWriteFail(slotAddr(op.a),
                                            unsigned(op.b));
            break;
          case 'C':
            stickBit(AddressMap::counterBlockAddr(slotAddr(op.a)),
                     op.b);
            break;
          case 'B':
            stickBit(AddressMap::treeNodeAddr(
                         1, AddressMap::pageOf(slotAddr(op.a)) /
                                MerkleTree::arity),
                     op.b);
            break;
          case 'M':
            stickBit(AddressMap::macBlockAddr(slotAddr(op.a)), op.b);
            break;
          default:
            break;
        }
        } catch (const crashpoint::MicrostepCrash &) {
            // Power died inside a drain's security work (armed by an
            // earlier m: op — possibly thrown from within another
            // op's crash flush or recovery re-drain). The registry
            // auto-disarmed; dump the machine as found and reboot.
            sys.crash(/*mid_operation=*/true);
            unsigned boots = 0;
            sys.recoverToCompletion(&boots);
            out.recoveryBoots += boots - 1;
        }
    }
    // An armed microstep crash that never fired must not trip during
    // the settle/verification drains below.
    creg.reset();
    // Let background drains settle before the sweep.
    sys.core().compute(1'000'000);
    sys.controller().drainTo(sys.core().now());

    // Blocks this schedule deliberately destroyed are expected to
    // diverge; the oracle must hold on every other block.
    const auto report =
        checkAgainstGolden(sys, golden, mediaSkipSet(sys, golden));
    sys.core().setObserver(nullptr);

    out.attack = sys.attackDetected();
    out.violations = report.violations;
    out.quarantined = sys.nvmDevice().quarantineCount();
    out.failed = out.attack || report.violations > 0;
    if (out.failed)
        out.note = out.attack ? "attack alarm on a fault-free adversary"
                              : report.summary();
    return out;
}

/**
 * ddmin: shrink @p ops to a (1-minimal-ish) schedule that still
 * satisfies @p failing. Deterministic; bounded by @p max_runs
 * predicate evaluations.
 */
std::vector<Op>
minimizeOps(std::vector<Op> ops,
            const std::function<bool(const std::vector<Op> &)> &failing,
            unsigned max_runs = 600)
{
    unsigned runs = 0;
    std::size_t n = 2;
    while (ops.size() >= 2 && runs < max_runs) {
        const std::size_t chunk = (ops.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t i = 0; i < n && runs < max_runs; ++i) {
            // Try the complement of chunk i.
            std::vector<Op> cand;
            cand.reserve(ops.size());
            for (std::size_t j = 0; j < ops.size(); ++j)
                if (j / chunk != i)
                    cand.push_back(ops[j]);
            if (cand.size() == ops.size())
                continue;
            ++runs;
            if (failing(cand)) {
                ops = std::move(cand);
                n = std::max<std::size_t>(2, n - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= ops.size())
                break;
            n = std::min(ops.size(), n * 2);
        }
    }
    return ops;
}

void
printRepro(SecurityMode mode, const std::vector<Op> &ops,
           const PlantSpec &plant)
{
    std::string bug;
    if (plant.clwbDrop)
        bug = " --plant-bug drop-clwb:" + std::to_string(*plant.clwbDrop);
    else if (plant.badCounterRepair)
        bug = " --plant-bug bad-counter-repair";
    std::printf("REPRO: dolos_torture --mode %s%s%s --replay %s\n",
                securityModeCliName(mode), bug.c_str(),
                machineArgs().c_str(), formatOps(ops).c_str());
}

/** Minimize a failing schedule and print the one-line repro. */
std::vector<Op>
minimizeAndReport(SecurityMode mode, const std::vector<Op> &ops,
                  const PlantSpec &plant)
{
    const auto minimized = minimizeOps(ops, [&](const auto &cand) {
        return runProgram(mode, cand, plant).failed;
    });
    std::printf("minimized %zu ops -> %zu ops\n", ops.size(),
                minimized.size());
    printRepro(mode, minimized, plant);
    return minimized;
}

/** One fault episode: a workload run with one fault around it. */
struct EpisodeSpec
{
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    std::string workload = "hashmap";
    std::uint64_t seed = 1;
    std::uint64_t txns = 4;
    std::uint64_t crashOp = 0;
    FaultKind fault = FaultKind::None;
};

/** Faults a mode can meaningfully receive. */
std::vector<FaultKind>
applicableFaults(SecurityMode mode)
{
    const ModeTraits &design = modeTraits(mode);
    if (design.security == SecurityPlacement::None)
        return {FaultKind::None, FaultKind::DroppedClwb,
                FaultKind::MediaTransient};
    std::vector<FaultKind> kinds = {
        FaultKind::None,           FaultKind::DataFlip,
        FaultKind::MacFlip,        FaultKind::CounterRollback,
        FaultKind::BmtFlip,        FaultKind::DroppedClwb,
        FaultKind::MediaTransient, FaultKind::MediaStuck,
        FaultKind::MediaWriteFail,
    };
    if (design.misu)
        kinds.push_back(FaultKind::TornAdrDump);
    return kinds;
}

/**
 * The seeded crash op of an episode, drawn from the operations its
 * run actually performs (the sweep's every-op probe), so every
 * episode crashes inside its run.
 */
std::uint64_t
drawCrashOp(const EpisodeSpec &spec)
{
    auto probe =
        crashTestSweep(spec.mode, spec.workload, spec.txns, spec.seed);
    probe.pointSet = CrashPoints::EveryOp;
    const std::size_t ops = enumerateCrashPoints(probe).size();
    return 1 + spec.seed % std::max<std::size_t>(1, ops);
}

FaultVerdict
runEpisode(const EpisodeSpec &spec)
{
    System sys(tortureConfig(spec.mode));
    GoldenModel golden;
    sys.core().setObserver(&golden);
    FaultEpisode episode(sys, spec.fault, spec.seed);
    episode.arm();
    const auto wl =
        workloads::makeWorkload(spec.workload, crashTestParams(spec.seed));
    const auto res = workloads::runWorkload(
        sys, *wl, spec.txns, workloads::CrashPlan(spec.crashOp));
    episode.strike(res.crashed);
    // Blocks a media fault rendered unrecoverable are expected to
    // diverge (they read back as quarantined zeros); the oracle must
    // still hold on every healthy block.
    const auto report =
        checkAgainstGolden(sys, golden, mediaSkipSet(sys, golden));
    sys.core().setObserver(nullptr);
    return episode.judge(res, report);
}

/** --txns, when it differs from the episode default. */
std::string
txnsArg(std::uint64_t txns)
{
    return txns == EpisodeSpec{}.txns ? ""
                                      : " --txns " + std::to_string(txns);
}

void
printEpisodeRepro(const EpisodeSpec &spec)
{
    std::printf("REPRO: dolos_torture --mode %s --workload %s --seed %llu"
                " --crash-op %llu --fault %s%s%s\n",
                securityModeCliName(spec.mode), spec.workload.c_str(),
                (unsigned long long)spec.seed,
                (unsigned long long)spec.crashOp,
                faultKindName(spec.fault), txnsArg(spec.txns).c_str(),
                machineArgs().c_str());
}

bool
writeSummary(const std::string &path, const std::string &record)
{
    if (path.empty() || writeRecord(path, record))
        return true;
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
}

/**
 * --faults: @p per_combo one-fault episodes for every (mode, workload),
 * with the fault kinds rotating through each mode's applicable set.
 */
int
runFaultCampaign(unsigned per_combo, std::uint64_t base_seed,
                 std::uint64_t txns, unsigned jobs,
                 std::uint64_t heartbeat, const std::string &summary_json)
{
    const SecurityMode modes[] = {
        SecurityMode::NonSecureIdeal,  SecurityMode::PreWpqSecure,
        SecurityMode::PostWpqUnprotected, SecurityMode::DolosFullWpq,
        SecurityMode::DolosPartialWpq, SecurityMode::DolosPostWpq,
    };

    // Always announce the base seed: a red campaign must be
    // re-runnable from the log alone.
    std::printf("fault campaign: %u episodes per mode and workload, base "
                "seed %llu, opt-knobs %s, jobs %u (replay: dolos_torture "
                "--faults %u --seed %llu%s%s)\n",
                per_combo, (unsigned long long)base_seed,
                pipelineSpecName(gBmtPipeline), jobs, per_combo,
                (unsigned long long)base_seed, txnsArg(txns).c_str(),
                machineArgs().c_str());

    // Materialize the episode list first: every spec is a pure
    // function of (base seed, mode, workload, episode index), so the
    // verdicts are identical for any --jobs value. The workload enters
    // by its index in workloadNames(), never by a hash of its name:
    // std::hash is implementation-defined, and the same --seed must
    // run the same episodes under any standard library.
    const auto wl_names = workloads::workloadNames();
    std::vector<EpisodeSpec> specs;
    for (const auto mode : modes) {
        const auto faults = applicableFaults(mode);
        unsigned fault_cursor = unsigned(base_seed % faults.size());
        for (std::size_t w = 0; w < wl_names.size(); ++w) {
            for (unsigned ep = 0; ep < per_combo; ++ep) {
                EpisodeSpec spec;
                spec.mode = mode;
                spec.workload = wl_names[w];
                spec.txns = txns;
                spec.fault = faults[fault_cursor++ % faults.size()];
                // Mix the coordinates into distinct per-episode seeds.
                spec.seed = base_seed * 1000003ULL +
                            unsigned(mode) * 131ULL + w * 1009ULL +
                            ep * 7919ULL;
                specs.push_back(spec);
            }
        }
    }

    CampaignMonitor monitor("faults", specs.size(), heartbeat);
    std::vector<FaultVerdict> verdicts(specs.size());
    runCampaign(specs.size(), jobs, monitor, [&](std::size_t k) {
        specs[k].crashOp = drawCrashOp(specs[k]);
        verdicts[k] = runEpisode(specs[k]);
        return CaseVerdict{specs[k].seed, !verdicts[k].passed};
    });
    // Report serially in campaign order: the failure log and REPRO
    // lines read the same however many workers ran the episodes.
    unsigned failed = 0, crashed = 0, detected = 0, oracle_catches = 0;
    for (std::size_t k = 0; k < specs.size(); ++k) {
        const auto &v = verdicts[k];
        crashed += v.crashed;
        detected += v.attackDetected;
        oracle_catches += v.oracleViolations > 0;
        if (v.passed)
            continue;
        ++failed;
        std::printf("FAIL [%s/%s fault=%s]: %s\n",
                    securityModeName(specs[k].mode),
                    specs[k].workload.c_str(),
                    faultKindName(specs[k].fault), v.note.c_str());
        printEpisodeRepro(specs[k]);
    }
    monitor.finish();
    if (!writeSummary(summary_json, monitor.summary()))
        return ExitUsage;
    std::printf("fault campaign: %zu episodes (%u crashed), %u failed, "
                "%u attack detections, %u oracle catches\n",
                specs.size(), crashed, failed, detected, oracle_catches);
    return failed ? ExitViolation : ExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::optional<unsigned> campaign;
    unsigned opsPerEpisode = 80;
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    bool modeGiven = false;
    std::optional<std::vector<Op>> replayOps;
    PlantSpec plant;
    std::optional<unsigned> expectBug;
    bool sweep = false;
    std::optional<unsigned> faults;
    std::optional<FaultKind> fault;
    std::optional<std::uint64_t> crashOp;
    bool metaFaults = false;
    std::uint64_t heartbeat = 5;
    unsigned jobs = 1;
    std::string summaryJson;
    std::optional<std::string> workload;
    std::string sweepPoints = "every-op";
    std::size_t sweepBudget = 4;
    std::optional<std::uint64_t> txns;
    std::optional<unsigned> recoveryCrash;
    const char *sweepFlag = nullptr; ///< a sweep-only flag, if given

    CliReader r(argc, argv, ExitUsage, usage);
    while (r.next()) {
        if (r.is("--seed")) {
            seed = r.number();
        } else if (r.is("--campaign")) {
            campaign = unsigned(r.number());
        } else if (r.is("--ops")) {
            opsPerEpisode = unsigned(r.number());
        } else if (r.is("--mode")) {
            mode = r.parsed(parseSecurityMode, "unknown mode");
            modeGiven = true;
        } else if (r.is("--replay")) {
            replayOps = r.parsed(parseOps, "bad replay spec");
        } else if (r.is("--plant-bug")) {
            plant = r.parsed(parsePlantSpec, "unknown bug spec");
        } else if (r.is("--expect-bug")) {
            expectBug = unsigned(r.number());
        } else if (r.is("--sweep")) {
            sweep = true;
        } else if (r.is("--faults")) {
            faults = unsigned(r.number());
        } else if (r.is("--fault")) {
            fault = r.parsed(parseFaultKind, "unknown fault");
        } else if (r.is("--crash-op")) {
            crashOp = r.number();
        } else if (r.is("--workload")) {
            workload = r.value();
        } else if (r.is("--points")) {
            sweepPoints = r.value();
            if (sweepPoints != "every-op" && sweepPoints != "wpq" &&
                sweepPoints != "microstep")
                r.fail("unknown --points '" + sweepPoints + "'");
            sweepFlag = "--points";
        } else if (r.is("--budget")) {
            sweepBudget = r.number();
            sweepFlag = "--budget";
        } else if (r.is("--txns")) {
            txns = r.number();
        } else if (r.is("--recovery-crash")) {
            recoveryCrash = unsigned(r.number());
            sweepFlag = "--recovery-crash";
        } else if (r.is("--eadr-budget")) {
            gEadrBudget = r.number();
            if (*gEadrBudget == 0)
                r.fail("--eadr-budget must be nonzero (a zero budget "
                       "could never admit a line)");
        } else if (r.is("--meta-faults")) {
            metaFaults = true;
            sweepFlag = "--meta-faults";
        } else if (r.is("--heartbeat")) {
            heartbeat = r.number();
        } else if (r.is("--jobs")) {
            jobs = r.jobs();
        } else if (r.is("--summary-json")) {
            summaryJson = r.value();
        } else if (r.is("--opt-knobs")) {
            gBmtPipeline =
                r.parsed(parsePipelineSpec, "bad --opt-knobs spec");
        } else {
            r.unknown();
        }
    }

    // One action per run, and no flag another action would silently
    // drop.
    if (campaign.has_value() + replayOps.has_value() +
            expectBug.has_value() + sweep + faults.has_value() +
            fault.has_value() !=
        1)
        r.fail("name exactly one action: --campaign, --replay, "
               "--expect-bug, --sweep, --faults or --fault");
    if (sweepFlag && !sweep)
        r.fail(std::string(sweepFlag) + " needs --sweep");
    if (crashOp && !fault)
        r.fail("--crash-op needs --fault");
    if (workload && !sweep && !fault)
        r.fail("--workload needs --sweep or --fault");
    if (modeGiven && faults)
        r.fail("--faults covers every mode; drop --mode");

    // Modes with an interruptible persist surface (see genProgram).
    const ModeTraits &design = modeTraits(mode);
    const bool microstepOps = design.misu || design.eadrDomain;

    if (faults)
        return runFaultCampaign(*faults, seed, txns.value_or(4), jobs,
                                heartbeat, summaryJson);

    if (fault) {
        EpisodeSpec spec;
        spec.mode = mode;
        spec.workload = workload.value_or(spec.workload);
        spec.seed = seed;
        spec.txns = txns.value_or(spec.txns);
        spec.fault = *fault;
        spec.crashOp = crashOp ? *crashOp : drawCrashOp(spec);
        const auto v = runEpisode(spec);
        std::printf("episode %s/%s fault=%s crash-op=%llu: %s (attack=%d "
                    "structure=%d oracle-violations=%llu)%s%s\n",
                    securityModeCliName(spec.mode), spec.workload.c_str(),
                    faultKindName(spec.fault),
                    (unsigned long long)spec.crashOp,
                    v.passed ? "PASS" : "FAIL", int(v.attackDetected),
                    int(v.structureVerified),
                    (unsigned long long)v.oracleViolations,
                    v.note.empty() ? "" : " — ", v.note.c_str());
        if (v.passed)
            return ExitOk;
        printEpisodeRepro(spec);
        return ExitViolation;
    }

    if (sweep) {
        // Arbitrary-cycle crash sweep (optionally with a compound
        // mid-recovery crash at every point) — the sanitizer lane's
        // entry into the sweep machinery without needing gtest.
        const std::string sweepWorkload = workload.value_or("hashmap");
        const std::uint64_t sweepTxns = txns.value_or(3);
        SweepOptions opt =
            crashTestSweep(mode, sweepWorkload, sweepTxns, seed);
        opt.budget = sweepBudget;
        opt.sampleSeed = seed;
        opt.pointSet = sweepPoints == "wpq" ? CrashPoints::WpqBoundaries
                       : sweepPoints == "microstep" ? CrashPoints::Microstep
                                                    : CrashPoints::EveryOp;
        if (opt.pointSet == CrashPoints::Microstep && !microstepOps) {
            std::fprintf(stderr,
                         "--points microstep needs a mode with an "
                         "interruptible persist surface: "
                         "dolos-full|dolos-partial|dolos-post "
                         "(the re-drainable ADR dump) or eadr "
                         "(the holdup flush); got %s\n",
                         securityModeCliName(mode));
            usage(ExitUsage);
        }
        opt.recoveryCrashStep = recoveryCrash;
        opt.metadataFaults = metaFaults;
        opt.heartbeatEvery = heartbeat;
        opt.jobs = jobs;
        const auto result = sweepCrashPoints(opt);
        std::printf("sweep [%s]: %zu candidate points, %zu run, "
                    "%zu failures\n",
                    describeSweep(opt).c_str(),
                    result.boundaries.size(), result.points.size(),
                    result.failures());
        std::printf("sweep %s\n", result.oracleTotals().summary().c_str());
        if (!writeSummary(summaryJson, result.summary))
            return ExitUsage;
        if (!result.allPassed()) {
            std::printf("FAIL: %s\n", result.firstFailure().c_str());
            // --jobs stays in the repro line for fidelity, but the
            // verdicts are jobs-invariant: a --jobs 1 re-run must
            // reproduce any parallel-run finding.
            std::printf("REPRO: dolos_torture --sweep --mode %s "
                        "--workload %s --txns %llu --budget %zu "
                        "--seed %llu --points %s%s%s%s%s --jobs %u\n",
                        securityModeCliName(mode), sweepWorkload.c_str(),
                        (unsigned long long)sweepTxns, sweepBudget,
                        (unsigned long long)seed, sweepPoints.c_str(),
                        recoveryCrash ? " --recovery-crash " : "",
                        recoveryCrash
                            ? std::to_string(*recoveryCrash).c_str()
                            : "",
                        metaFaults ? " --meta-faults" : "",
                        machineArgs().c_str(), jobs);
            return ExitViolation;
        }
        return ExitOk;
    }

    if (replayOps) {
        const auto &ops = *replayOps;
        const auto out = runProgram(mode, ops, plant);
        std::printf("replay %zu ops on %s: %s (attack=%d "
                    "violations=%llu quarantined=%zu extra-boots=%u)"
                    "%s%s\n",
                    ops.size(), securityModeName(mode),
                    out.failed ? "FAIL" : "PASS", int(out.attack),
                    (unsigned long long)out.violations,
                    out.quarantined, out.recoveryBoots,
                    out.note.empty() ? "" : " — ", out.note.c_str());
        if (out.failed)
            minimizeAndReport(mode, ops, plant);
        return exitCodeFor(!out.failed, out.attack,
                           out.quarantined != 0 && !out.failed);
    }

    if (expectBug) {
        // Meta-test: plant a known bug, require the campaign to find
        // it, minimize the schedule to --expect-bug ops or fewer, and
        // prove the minimized repro replays deterministically. Two
        // quarries: the CLWB drop the committed-prefix oracle exists
        // to catch, then a counter-repair bug (repair adopts the raw
        // faulted frame instead of reconstructing) that only the
        // metadata-fault ops can expose.
        const auto hunt = [&](const PlantSpec &spec,
                              const char *label) -> bool {
            for (unsigned ep = 0; ep < 50; ++ep) {
                const auto ops =
                    genProgram(seed + ep, opsPerEpisode, microstepOps);
                const auto out = runProgram(mode, ops, spec);
                if (!out.failed)
                    continue;
                std::printf("planted %s tripped at episode %u "
                            "(seed %llu): %s\n",
                            label, ep, (unsigned long long)(seed + ep),
                            out.note.c_str());
                const auto minimized =
                    minimizeAndReport(mode, ops, spec);
                if (minimized.size() > *expectBug) {
                    std::printf("FAIL: minimized to %zu ops, wanted "
                                "<= %u\n",
                                minimized.size(), *expectBug);
                    return false;
                }
                const auto r1 = runProgram(mode, minimized, spec);
                const auto r2 = runProgram(mode, minimized, spec);
                if (!r1.failed || !r2.failed ||
                    r1.violations != r2.violations) {
                    std::printf("FAIL: minimized repro is not "
                                "deterministic\n");
                    return false;
                }
                std::printf("minimized repro replays "
                            "deterministically (%llu violations)\n",
                            (unsigned long long)r1.violations);
                return true;
            }
            std::printf("FAIL: planted %s never tripped in "
                        "50 episodes\n",
                        label);
            return false;
        };
        PlantSpec clwb;
        clwb.clwbDrop = 0; // drop the first CLWB
        PlantSpec badRepair;
        badRepair.badCounterRepair = true;
        if (!hunt(clwb, "clwb-drop"))
            return ExitViolation;
        if (!hunt(badRepair, "bad-counter-repair"))
            return ExitViolation;
        return ExitOk;
    }

    unsigned failed = 0;
    bool any_attack = false;
    std::printf("torture campaign: %u episodes x %u ops, mode %s, "
                "base seed %llu, opt-knobs %s, jobs %u\n",
                *campaign, opsPerEpisode, securityModeName(mode),
                (unsigned long long)seed,
                pipelineSpecName(gBmtPipeline), jobs);
    // Two phases: episodes run into per-episode slots (each is seeded
    // and self-contained), then failures are reported and minimized
    // in episode order, so stdout is the same for any --jobs.
    CampaignMonitor monitor("torture", *campaign, heartbeat);
    std::vector<Outcome> outcomes(*campaign);
    runCampaign(*campaign, jobs, monitor, [&](std::size_t ep) {
        outcomes[ep] = runProgram(
            mode, genProgram(seed + ep, opsPerEpisode, microstepOps),
            PlantSpec{});
        return CaseVerdict{seed + ep, outcomes[ep].failed};
    });
    for (unsigned ep = 0; ep < *campaign; ++ep) {
        const auto &out = outcomes[ep];
        if (!out.failed)
            continue;
        ++failed;
        any_attack |= out.attack;
        const std::uint64_t ep_seed = seed + ep;
        std::printf("FAIL episode %u (seed %llu): %s\n", ep,
                    (unsigned long long)ep_seed, out.note.c_str());
        minimizeAndReport(
            mode, genProgram(ep_seed, opsPerEpisode, microstepOps),
            PlantSpec{});
    }
    monitor.finish();
    if (!writeSummary(summaryJson, monitor.summary()))
        return ExitUsage;
    std::printf("campaign done: %u/%u episodes failed\n", failed,
                *campaign);
    if (failed)
        return any_attack ? ExitAttack : ExitViolation;
    return ExitOk;
}
