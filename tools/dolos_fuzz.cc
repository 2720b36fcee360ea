/**
 * @file
 * dolos_fuzz — randomized differential fault campaigns.
 *
 * Each episode runs one workload on one controller organization with
 * the golden reference machine attached, crashes it at a seeded
 * operation, optionally injects one fault, and checks the outcome
 * contract:
 *
 *   no fault       : structure verified, oracle clean, no alarms
 *   injected attack: the attack-detected flag must be raised, OR the
 *                    fault was absorbed harmlessly (structure + oracle
 *                    both clean)
 *   dropped CLWB   : never an alarm (it is a software bug, not an
 *                    attack); the oracle's catches are reported
 *
 * On any violated contract the tool prints a one-line repro:
 *
 *   REPRO: dolos_fuzz --mode M --workload W --seed S --crash-op N
 *          --fault F --opt-knobs K
 *
 * which re-runs exactly that episode (the knob state is part of the
 * machine under test, so every repro line spells it out). Campaigns:
 *
 *   dolos_fuzz --campaign smoke     (CI: ~2 episodes per mode+workload)
 *   dolos_fuzz --campaign nightly   (8 episodes per mode+workload)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/exit_codes.hh"
#include "sim/heartbeat.hh"
#include "sim/thread_annotations.hh"
#include "verify/campaign.hh"
#include "verify/diff_oracle.hh"
#include "verify/fault_injector.hh"
#include "workloads/runner.hh"

using namespace dolos;
using namespace dolos::verify;
using namespace dolos::workloads;

namespace
{

struct EpisodeSpec
{
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    std::string workload = "hashmap";
    std::uint64_t seed = 1;
    std::uint64_t crashOp = 200;
    FaultKind fault = FaultKind::None;
};

struct EpisodeOutcome
{
    bool passed = false;
    bool attackDetected = false;
    bool structureVerified = false;
    std::uint64_t oracleViolations = 0;
    std::string note;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: dolos_fuzz [--campaign smoke|nightly] [options]\n"
        "       dolos_fuzz --mode M --workload W --seed S"
        " --crash-op N --fault F\n"
        "  --mode MODE      %s\n"
        "  --workload NAME  hashmap|ctree|btree|rbtree|nstore-ycsb|"
        "redis\n"
        "  --fault F        none|data-flip|mac-flip|counter-rollback|"
        "bmt-flip|torn-adr-dump|dropped-clwb|\n"
        "                   media-transient|media-stuck|"
        "media-write-fail\n"
        "  --opt-knobs K    persist-path lever set: all|none|"
        "comma list of\n"
        "                   bmt-pipeline,drain-batch,tag-prefetch"
        "[,bmt-window=N]\n"
        "  --heartbeat N    emit an NDJSON progress record to "
        "stderr every N episodes\n"
        "                   (campaigns; default 5, 0 = off)\n"
        "  --jobs N         worker threads for campaign episodes "
        "(default 1;\n"
        "                   verdicts are bit-identical to --jobs 1)\n"
        "  --summary-json FILE  write the campaign-summary record\n"
        "  --seed N | --crash-op N | --txns N | --help\n",
        securityModeCliNames().c_str());
    std::exit(code);
}

DOLOS_THREAD_LOCAL_OK; // parsed in main() before any worker starts
std::uint64_t episodeTxns = 4;
DOLOS_THREAD_LOCAL_OK; // parsed in main() before any worker starts
OptKnobs gOptKnobs; ///< defaults to all levers on

SystemConfig
smallConfig(SecurityMode mode)
{
    auto cfg = SystemConfig::paperDefault();
    applyOptKnobs(cfg, gOptKnobs);
    cfg.mode = mode;
    cfg.secure.functionalLeaves = 8192;
    cfg.secure.map.protectedBytes = Addr(8192) * pageBytes;
    cfg.hierarchy.l1 = {"l1", 1024, 2, 2};
    cfg.hierarchy.l2 = {"l2", 4096, 4, 20};
    cfg.hierarchy.llc = {"llc", 16384, 8, 32};
    return cfg;
}

WorkloadParams
smallParams(std::uint64_t seed)
{
    WorkloadParams p;
    p.txSize = 256;
    p.numKeys = 48;
    p.seed = seed;
    p.thinkTime = 400;
    p.readsPerTx = 1;
    return p;
}

/** Faults this episode's mode can meaningfully receive. */
std::vector<FaultKind>
applicableFaults(SecurityMode mode)
{
    if (mode == SecurityMode::NonSecureIdeal)
        return {FaultKind::None, FaultKind::DroppedClwb,
                FaultKind::MediaTransient};
    std::vector<FaultKind> kinds = {
        FaultKind::None,           FaultKind::DataFlip,
        FaultKind::MacFlip,        FaultKind::CounterRollback,
        FaultKind::BmtFlip,        FaultKind::DroppedClwb,
        FaultKind::MediaTransient, FaultKind::MediaStuck,
        FaultKind::MediaWriteFail,
    };
    if (isDolosMode(mode))
        kinds.push_back(FaultKind::TornAdrDump);
    return kinds;
}

EpisodeOutcome
runEpisode(const EpisodeSpec &spec)
{
    EpisodeOutcome out;
    System sys(smallConfig(spec.mode));
    GoldenModel golden;
    sys.core().setObserver(&golden);
    FaultInjector inj(sys, spec.seed);

    auto wl = makeWorkload(spec.workload, smallParams(spec.seed));

    InjectionRecord rec;
    if (spec.fault == FaultKind::TornAdrDump) {
        const unsigned entries =
            sys.config().wpq.entriesFor(spec.mode);
        rec = inj.armTornAdrDump(unsigned(spec.seed % entries));
    } else if (spec.fault == FaultKind::DroppedClwb) {
        rec = inj.armDroppedClwb(spec.seed % 64);
    }

    CrashPlan plan;
    plan.atOp = spec.crashOp;
    const auto res = runWorkload(sys, *wl, episodeTxns, plan);

    const bool image_fault = spec.fault == FaultKind::DataFlip ||
                             spec.fault == FaultKind::MacFlip ||
                             spec.fault == FaultKind::CounterRollback ||
                             spec.fault == FaultKind::BmtFlip;
    const bool media_fault = spec.fault == FaultKind::MediaTransient ||
                             spec.fault == FaultKind::MediaStuck ||
                             spec.fault == FaultKind::MediaWriteFail;
    if (media_fault) {
        // Power-cycle to cold caches so the provoking access is a
        // real NVM demand read/write, then wound the device.
        sys.crash();
        sys.recoverToCompletion();
        rec = inj.inject(spec.fault);
        if (rec.injected) {
            if (spec.fault == FaultKind::MediaWriteFail) {
                // Rewrite the victim so the failing write path has
                // to retry and eventually quarantine.
                const Block cur =
                    sys.nvmDevice().readFunctional(rec.victim);
                sys.core().store(rec.victim, cur.data(), blockSize);
                sys.core().clwb(rec.victim);
                sys.core().sfence();
                sys.core().compute(1'000'000);
                sys.controller().drainTo(sys.core().now());
            } else {
                // A stuck cell is *expected* to read back as
                // quarantined zeros — that is the graceful-degradation
                // contract, not a violation, so the provoking load
                // bypasses the oracle. A transient flip must heal, so
                // its load stays adjudicated.
                const bool expect_zeros =
                    spec.fault == FaultKind::MediaStuck;
                if (expect_zeros)
                    sys.core().setObserver(nullptr);
                Block buf;
                sys.core().load(rec.victim, buf.data(), blockSize);
                if (expect_zeros)
                    sys.core().setObserver(&golden);
            }
        }
    } else if (image_fault) {
        // Second power cycle: quiesce the caches and the ADR dump,
        // then attack the powered-off (rollback) or recovered (flip)
        // image and provoke the relevant check.
        sys.crash();
        if (spec.fault == FaultKind::CounterRollback)
            rec = inj.inject(spec.fault);
        sys.recover();
        if (spec.fault != FaultKind::CounterRollback) {
            rec = inj.inject(spec.fault);
            if (rec.injected) {
                Block buf;
                sys.core().load(rec.victim, buf.data(), blockSize);
            }
        }
    } else if (spec.fault == FaultKind::TornAdrDump && !res.crashed) {
        // The seeded crash op landed beyond the run; the armed tear
        // never fired. Fire it now so the episode still tests it.
        sys.crash();
        sys.recover();
    }

    // Blocks a media fault rendered unrecoverable are expected to
    // diverge (they read back as quarantined zeros); the oracle must
    // still hold on every healthy block.
    const auto report =
        checkAgainstGolden(sys, golden, mediaSkipSet(sys, golden));
    sys.core().setObserver(nullptr);

    out.attackDetected = sys.attackDetected();
    out.structureVerified = res.verified;
    out.oracleViolations = report.violations;
    const bool clean =
        res.verified && report.clean() && !out.attackDetected;

    switch (spec.fault) {
      case FaultKind::None:
        out.passed = clean;
        if (!out.passed)
            out.note = res.verified ? report.summary()
                                    : res.verifyDiagnostic;
        break;
      case FaultKind::DroppedClwb:
        // Losing a flush is a software/platform bug: it must never
        // masquerade as an attack. Oracle catches are the expected
        // signal when the lost flush mattered.
        out.passed = !out.attackDetected;
        if (report.violations > 0 || !res.verified)
            out.note = "oracle caught the dropped flush";
        break;
      case FaultKind::MediaTransient:
        // A one-shot device flip must be healed by the bounded retry:
        // no alarm, no quarantine, no divergence.
        out.passed = clean && !sys.unrecoverableMedia();
        if (!out.passed)
            out.note = "transient media fault not healed: " +
                       report.summary();
        break;
      case FaultKind::MediaStuck:
      case FaultKind::MediaWriteFail:
        // An unhealable cell must be disambiguated from tamper: the
        // block is quarantined (unrecoverable-media, NOT an attack
        // alarm) and every healthy block still verifies.
        out.passed = !out.attackDetected && report.clean() &&
                     (!rec.injected || sys.unrecoverableMedia());
        if (!out.passed)
            out.note = out.attackDetected
                           ? "media fault misreported as attack"
                           : "quarantine missing or collateral "
                             "damage: " + report.summary();
        break;
      default:
        // An injected attack must be detected — or fully absorbed
        // with no divergence at all (e.g. the tear had nothing to
        // tear off). Silent corruption fails the episode.
        out.passed = out.attackDetected ||
                     (res.verified && report.clean());
        if (!out.passed)
            out.note = "silent corruption: " + report.summary();
        break;
    }
    if (rec.kind != FaultKind::None && !rec.detail.empty() &&
        out.note.empty())
        out.note = rec.detail;
    return out;
}

void
printRepro(const EpisodeSpec &spec)
{
    std::printf("REPRO: dolos_fuzz --mode %s --workload %s --seed %llu"
                " --crash-op %llu --fault %s --opt-knobs %s\n",
                securityModeCliName(spec.mode), spec.workload.c_str(),
                (unsigned long long)spec.seed,
                (unsigned long long)spec.crashOp,
                faultKindName(spec.fault),
                formatOptKnobs(gOptKnobs).c_str());
}

DOLOS_THREAD_LOCAL_OK; // parsed in main() before any worker starts
std::uint64_t heartbeatEvery = 5;
DOLOS_THREAD_LOCAL_OK; // parsed in main() before any worker starts
std::string summaryJsonFile;
DOLOS_THREAD_LOCAL_OK; // parsed in main() before any worker starts
unsigned campaignJobs = 1;

int
runNamedCampaign(const std::string &name, std::uint64_t base_seed)
{
    const unsigned episodes_per_combo = name == "smoke" ? 2 : 8;

    const SecurityMode modes[] = {
        SecurityMode::NonSecureIdeal,
        SecurityMode::PreWpqSecure,
        SecurityMode::PostWpqUnprotected,
        SecurityMode::DolosFullWpq,
        SecurityMode::DolosPartialWpq,
        SecurityMode::DolosPostWpq,
    };

    // Always announce the base seed: a red campaign must be
    // re-runnable from the log alone.
    std::printf("campaign %s: base seed %llu, opt-knobs %s, jobs %u "
                "(replay: dolos_fuzz --campaign %s --seed %llu "
                "--opt-knobs %s)\n",
                name.c_str(), (unsigned long long)base_seed,
                formatOptKnobs(gOptKnobs).c_str(), campaignJobs,
                name.c_str(), (unsigned long long)base_seed,
                formatOptKnobs(gOptKnobs).c_str());

    // Materialize the episode list first: the spec for every episode
    // is a pure function of (base seed, mode, workload, episode
    // index), so the parallel phase can hand specs to workers by
    // index and the verdict set is identical for any --jobs value.
    // The workload enters by its index in workloadNames(), never by a
    // hash of its name: std::hash is implementation-defined, and the
    // same --seed must run the same episodes under any standard library.
    const auto wl_names = workloadNames();
    std::vector<EpisodeSpec> specs;
    for (const auto mode : modes) {
        const auto faults = applicableFaults(mode);
        unsigned fault_cursor = unsigned(base_seed % faults.size());
        for (std::size_t w = 0; w < wl_names.size(); ++w) {
            for (unsigned ep = 0; ep < episodes_per_combo; ++ep) {
                EpisodeSpec spec;
                spec.mode = mode;
                spec.workload = wl_names[w];
                spec.fault = faults[fault_cursor++ % faults.size()];
                // Mix the coordinates into distinct per-episode seeds.
                spec.seed = base_seed * 1000003ULL +
                            unsigned(mode) * 131ULL + w * 1009ULL +
                            ep * 7919ULL;
                spec.crashOp = 1 + spec.seed % 1500;
                specs.push_back(spec);
            }
        }
    }

    unsigned total = 0, failed = 0, detected = 0, oracle_catches = 0;
    CampaignMonitor monitor("fuzz-" + name, specs.size(),
                            heartbeatEvery);
    std::vector<EpisodeOutcome> outcomes(specs.size());
    runCampaign(specs.size(), campaignJobs, monitor, [&](std::size_t k) {
        outcomes[k] = runEpisode(specs[k]);
        return CaseVerdict{specs[k].seed, !outcomes[k].passed};
    });
    // Report serially in campaign order: the failure log and REPRO
    // lines read the same however many workers ran the episodes.
    for (std::size_t k = 0; k < specs.size(); ++k) {
        const auto &out = outcomes[k];
        ++total;
        detected += out.attackDetected;
        oracle_catches += out.oracleViolations > 0;
        if (!out.passed) {
            ++failed;
            std::printf("FAIL [%s/%s fault=%s]: %s\n",
                        securityModeName(specs[k].mode),
                        specs[k].workload.c_str(),
                        faultKindName(specs[k].fault),
                        out.note.c_str());
            printRepro(specs[k]);
        }
    }
    monitor.finish();
    if (!summaryJsonFile.empty() &&
        !writeRecord(summaryJsonFile, monitor.summary())) {
        std::fprintf(stderr, "cannot write %s\n",
                     summaryJsonFile.c_str());
        return ExitUsage;
    }
    std::printf("campaign %s: %u episodes, %u failed, %u attack "
                "detections, %u oracle catches\n",
                name.c_str(), total, failed, detected, oracle_catches);
    return failed ? ExitViolation : ExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string campaign;
    EpisodeSpec spec;
    bool single = false;
    std::uint64_t seed = 1;

    CliReader r(argc, argv, ExitUsage, usage);
    while (r.next()) {
        if (r.is("--campaign")) {
            campaign = r.value();
            if (campaign != "smoke" && campaign != "nightly")
                r.fail("unknown campaign '" + campaign + "'");
        } else if (r.is("--mode")) {
            spec.mode = r.parsed(parseSecurityMode, "unknown mode");
            single = true;
        } else if (r.is("--workload")) {
            spec.workload = r.value();
            single = true;
        } else if (r.is("--seed")) {
            seed = r.number();
        } else if (r.is("--crash-op")) {
            spec.crashOp = r.number();
            single = true;
        } else if (r.is("--txns")) {
            episodeTxns = r.number();
        } else if (r.is("--heartbeat")) {
            heartbeatEvery = r.number();
        } else if (r.is("--jobs")) {
            campaignJobs = r.jobs();
        } else if (r.is("--summary-json")) {
            summaryJsonFile = r.value();
        } else if (r.is("--opt-knobs")) {
            gOptKnobs = r.parsed(parseOptKnobs, "bad --opt-knobs spec");
        } else if (r.is("--fault")) {
            spec.fault = r.parsed(parseFaultKind, "unknown fault");
            single = true;
        } else {
            r.unknown();
        }
    }

    if (!campaign.empty() && single) {
        std::fprintf(stderr,
                     "--campaign and single-episode options are "
                     "mutually exclusive\n");
        usage(ExitUsage);
    }
    if (campaign.empty() && !single)
        campaign = "smoke";

    if (!campaign.empty())
        return runNamedCampaign(campaign, seed);

    spec.seed = seed;
    const auto out = runEpisode(spec);
    std::printf("episode %s/%s fault=%s crash-op=%llu: %s "
                "(attack=%d structure=%d oracle-violations=%llu)%s%s\n",
                securityModeCliName(spec.mode), spec.workload.c_str(),
                faultKindName(spec.fault),
                (unsigned long long)spec.crashOp,
                out.passed ? "PASS" : "FAIL", int(out.attackDetected),
                int(out.structureVerified),
                (unsigned long long)out.oracleViolations,
                out.note.empty() ? "" : " — ", out.note.c_str());
    if (!out.passed) {
        printRepro(spec);
        return 1;
    }
    return 0;
}
