/**
 * @file
 * dolos_sim — command-line front end to the simulator.
 *
 * Runs one workload on one controller configuration and prints the
 * run metrics (and optionally the full statistics tree). Examples:
 *
 *   dolos_sim --workload btree --mode dolos-partial --txns 2000
 *   dolos_sim --workload redis --mode baseline --tx-size 512 --stats
 *   dolos_sim --workload hashmap --mode dolos-post --crash-at 5000
 *   dolos_sim --workload hashmap --mode full_wpq \
 *             --trace t.json --stats-json s.json
 *   dolos_sim --list
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "sim/cli.hh"
#include "sim/exit_codes.hh"
#include "sim/profiler.hh"
#include "sim/stat_sampler.hh"
#include "sim/trace.hh"
#include "verify/fault_injector.hh"
#include "verify/manifest_check.hh"
#include "workloads/runner.hh"

using namespace dolos;
using namespace dolos::workloads;

namespace
{

struct Options
{
    std::string workload = "hashmap";
    SecurityMode mode = SecurityMode::DolosPartialWpq;
    std::uint64_t txns = 1000;
    unsigned txSize = 1024;
    std::uint64_t numKeys = 1024;
    std::uint64_t seed = 42;
    Cycles thinkTime = 60000;
    unsigned wpqBudget = 16;
    TreeUpdatePolicy tree = TreeUpdatePolicy::EagerMerkle;
    CrashScheme crashScheme = CrashScheme::Anubis;
    std::optional<std::uint64_t> crashAt;
    bool stats = false;
    bool noCoalescing = false;
    std::string traceFile;     ///< --trace: Chrome trace_event JSON
    std::string statsJsonFile; ///< --stats-json: machine-readable stats
    std::optional<verify::FaultKind> injectFault; ///< post-run fault
    NvmRegion mediaRegion = NvmRegion::Data; ///< --media-region target
    std::string damageJsonFile; ///< --damage-json: media damage report
    std::uint64_t scrubInterval = 0;  ///< --scrub-interval (0 = off)
    std::optional<unsigned> spares;   ///< --spares: NVM spare frames
    std::optional<std::uint64_t> eadrBudget; ///< --eadr-budget cycles
    bool verifyManifest = false; ///< --verify-manifest: crash-state check
    bool bmtPipeline = true; ///< --opt-knobs (none = serial Ma-SU)
    std::uint64_t sampleInterval = 0; ///< --sample-interval (0 = off)
    std::string timelineFile; ///< --stats-timeline (.csv => CSV)
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: dolos_sim [options]\n"
        "  --workload NAME     hashmap|ctree|btree|rbtree|nstore-ycsb|"
        "redis (--list)\n"
        "  --mode MODE         %s\n"
        "                      (aliases: full_wpq|partial_wpq|post_wpq)\n"
        "  --eadr-budget N     eADR holdup energy budget in cycles\n"
        "                      (nonzero; an under-provisioned budget\n"
        "                      quarantines the unflushed tail -> exit 4)\n"
        "  --txns N            transactions to run (default 1000)\n"
        "  --tx-size BYTES     payload per transaction (default 1024)\n"
        "  --keys N            key-space size (default 1024)\n"
        "  --think CYCLES      modeled compute per tx (default 60000)\n"
        "  --wpq N             ADR budget entries (default 16); Partial\n"
        "                      gets max(N*8/9-1, 0) entries, Post\n"
        "                      N*8/9-4 for N > 6 else N/2, others N\n"
        "  --tree eager|lazy   integrity-tree scheme (default eager)\n"
        "  --crash-scheme anubis|osiris\n"
        "  --crash-at OP       inject a power failure at env op OP\n"
        "  --no-coalescing     disable the WPQ tag-array coalescing\n"
        "  --trace FILE        write a Chrome trace_event JSON of the\n"
        "                      persist critical path (chrome://tracing)\n"
        "  --stats             print the stat tree, then the run's host\n"
        "                      time and self-profile\n"
        "  --stats-json FILE   write run metrics + stat tree + host time\n"
        "                      and self-profile as JSON\n"
        "  --inject-fault KIND inject one fault around the run: "
        "data-flip|mac-flip|\n"
        "                      counter-rollback|bmt-flip|"
        "media-transient|media-stuck|\n"
        "                      media-write-fail (after it), or\n"
        "                      torn-adr-dump|dropped-clwb (armed "
        "before it)\n"
        "  --media-fault K     alias: transient|stuck|write-fail\n"
        "  --media-region R    data|counter|tree|mac — which region a\n"
        "                      media transient/stuck fault lands in\n"
        "                      (metadata faults inject BEFORE the\n"
        "                      crash so recovery must repair them;\n"
        "                      with --scrub-interval, before the\n"
        "                      measured transactions)\n"
        "  --scrub-interval N  opt-in background metadata scrub every\n"
        "                      N secure writes (0 = off)\n"
        "  --spares N          NVM spare frames for remapping worn\n"
        "                      metadata (0 forces cascade-quarantine)\n"
        "  --damage-json FILE  write the media damage report "
        "('-' = stdout)\n"
        "  --verify-manifest   run the power-loss differential of the\n"
        "                      declared crash-state model in the three\n"
        "                      Mi-SU modes plus eadr, then exit "
        "(uses --seed)\n"
        "  --opt-knobs SPEC    BMT update pipeline: all (default) or\n"
        "                      none (the paper's serial Ma-SU)\n"
        "  --sample-interval N sample the stat tree every N simulated\n"
        "                      cycles into a windowed timeline\n"
        "  --stats-timeline F  write the timeline to F (JSON, or CSV\n"
        "                      when F ends in .csv); needs\n"
        "                      --sample-interval\n"
        "  --seed N | --list | --help\n"
        "exit codes: 0 ok, 1 verification failure, 2 usage, "
        "3 attack alarm,\n"
        "            4 unrecoverable media fault\n",
        securityModeCliNames().c_str());
    std::exit(code);
}

Options
parse(int argc, char **argv)
{
    Options o;
    CliReader r(argc, argv, ExitUsage, usage);
    while (r.next()) {
        if (r.is("--workload"))
            o.workload = r.value();
        else if (r.is("--mode"))
            o.mode = r.parsed(parseSecurityMode, "unknown mode");
        else if (r.is("--txns"))
            o.txns = r.number();
        else if (r.is("--tx-size"))
            o.txSize = unsigned(r.number());
        else if (r.is("--keys"))
            o.numKeys = r.number();
        else if (r.is("--think"))
            o.thinkTime = r.number();
        else if (r.is("--wpq"))
            o.wpqBudget = unsigned(r.number());
        else if (r.is("--tree"))
            o.tree = r.choice<TreeUpdatePolicy>(
                {{"eager", TreeUpdatePolicy::EagerMerkle},
                 {"lazy", TreeUpdatePolicy::LazyToc}},
                "unknown tree scheme");
        else if (r.is("--crash-scheme"))
            o.crashScheme = r.choice<CrashScheme>(
                {{"anubis", CrashScheme::Anubis},
                 {"osiris", CrashScheme::Osiris}},
                "unknown crash scheme");
        else if (r.is("--crash-at"))
            o.crashAt = r.number();
        else if (r.is("--seed"))
            o.seed = r.number();
        else if (r.is("--stats"))
            o.stats = true;
        else if (r.is("--no-coalescing"))
            o.noCoalescing = true;
        else if (r.is("--trace"))
            o.traceFile = r.value();
        else if (r.is("--stats-json"))
            o.statsJsonFile = r.value();
        else if (r.is("--inject-fault"))
            o.injectFault = r.parsed(
                [](const std::string &k) -> std::optional<verify::FaultKind> {
                    const auto kind = verify::parseFaultKind(k);
                    return kind == verify::FaultKind::None
                               ? std::nullopt
                               : kind;
                },
                "unknown fault kind");
        else if (r.is("--media-fault"))
            o.injectFault = r.parsed(
                [](const std::string &k) {
                    return verify::parseFaultKind("media-" + k);
                },
                "unknown media fault");
        else if (r.is("--media-region"))
            o.mediaRegion = r.choice<NvmRegion>(
                {{"data", NvmRegion::Data},
                 {"counter", NvmRegion::Counter},
                 {"tree", NvmRegion::Tree},
                 {"mac", NvmRegion::Mac}},
                "unknown media region");
        else if (r.is("--scrub-interval"))
            o.scrubInterval = r.number();
        else if (r.is("--spares"))
            o.spares = unsigned(r.number());
        else if (r.is("--eadr-budget"))
            o.eadrBudget = r.number();
        else if (r.is("--damage-json"))
            o.damageJsonFile = r.value();
        else if (r.is("--verify-manifest"))
            o.verifyManifest = true;
        else if (r.is("--opt-knobs"))
            o.bmtPipeline =
                r.parsed(parsePipelineSpec, "unknown opt knob in");
        else if (r.is("--sample-interval"))
            o.sampleInterval = r.number();
        else if (r.is("--stats-timeline"))
            o.timelineFile = r.value();
        else if (r.is("--list")) {
            for (const auto &n : extendedWorkloadNames())
                std::printf("%s\n", n.c_str());
            std::exit(0);
        } else
            r.unknown();
    }
    return o;
}

const char *const selfprofOff =
    "self-profiler compiled out (rebuild with -DDOLOS_SELFPROF=ON)";

/** Host tx/s of a run that took @p host_sec wall-clock seconds. */
double
hostTxPerSec(const RunResult &res, double host_sec)
{
    return host_sec > 0 ? double(res.transactions) / host_sec : 0;
}

/** Host cost of the run: wall-clock, tx/s and the self-profile. */
void
printHostReport(const RunResult &res, double host_sec)
{
    std::printf("\nhost time           : %.3f s (%.0f tx/s)\n", host_sec,
                hostTxPerSec(res, host_sec));
#if DOLOS_SELFPROF
    prof::Profiler::instance().report(std::cout);
#else
    std::printf("%s\n", selfprofOff);
#endif
}

/**
 * Write the run metrics, the full stat tree and the run's host cost
 * as one JSON document. "run" and "stats" are deterministic; "host"
 * is this run's wall-clock and self-profile.
 */
void
writeStatsJson(std::ostream &os, const System &sys, const RunResult &res,
               double host_sec)
{
    os << "{\"run\":{"
       << "\"workload\":\"" << res.workload << "\""
       << ",\"mode\":\"" << securityModeName(res.mode) << "\""
       << ",\"transactions\":" << res.transactions
       << ",\"runCycles\":" << res.runCycles
       << ",\"instructions\":" << res.instructions
       << ",\"cyclesPerTx\":" << res.cyclesPerTx()
       << ",\"cpi\":" << res.cpi
       << ",\"retriesPerKwr\":" << res.retriesPerKwr
       << ",\"retryEvents\":" << res.retryEvents
       << ",\"writeRequests\":" << res.writeRequests
       << ",\"fenceStallCycles\":" << res.fenceStallCycles
       << ",\"wpqReadHits\":" << res.wpqReadHits
       << ",\"coalesces\":" << res.coalesces
       << ",\"crashed\":" << (res.crashed ? "true" : "false")
       << ",\"verified\":" << (res.verified ? "true" : "false")
       << "},\"stats\":";
    sys.dumpStatsJson(os);
    os << ",\"host\":{\"seconds\":" << host_sec
       << ",\"txPerSec\":" << hostTxPerSec(res, host_sec)
       << ",\"selfprof\":";
#if DOLOS_SELFPROF
    prof::Profiler::instance().reportJson(os);
#else
    os << "\"" << selfprofOff << "\"";
#endif
    os << "}}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    if ((o.sampleInterval == 0) != o.timelineFile.empty()) {
        std::fprintf(stderr,
                     "--sample-interval and --stats-timeline must be "
                     "used together\n");
        usage(ExitUsage);
    }

    if (o.verifyManifest) {
        bool ok = true;
        for (const auto &res :
             verify::verifyCrashManifestAllModes(o.seed)) {
            std::fputs(verify::formatManifestReport(res).c_str(),
                       stdout);
            ok = ok && res.ok();
        }
        std::printf("verify-manifest     : %s\n", ok ? "PASS" : "FAIL");
        return ok ? ExitOk : ExitViolation;
    }

    if (!o.traceFile.empty()) {
#if DOLOS_TRACING
        trace::Tracer::instance().enable();
#else
        std::fprintf(stderr,
                     "--trace requested but tracing was compiled out "
                     "(rebuild with -DDOLOS_TRACING=ON)\n");
        return 1;
#endif
    }

    if (o.mediaRegion != NvmRegion::Data &&
        (!o.injectFault ||
         (*o.injectFault != verify::FaultKind::MediaTransient &&
          *o.injectFault != verify::FaultKind::MediaStuck))) {
        std::fprintf(stderr,
                     "--media-region needs --media-fault "
                     "transient|stuck\n");
        usage(ExitUsage);
    }

    auto cfg = SystemConfig::paperDefault();
    cfg.mode = o.mode;
    cfg.secure.treePolicy = o.tree;
    cfg.secure.crashScheme = o.crashScheme;
    cfg.wpq.adrBudgetEntries = o.wpqBudget;
    // Below zero the rule gives 0, which validateConfig rejects only
    // for the mode that would use it.
    const unsigned eight_ninths = o.wpqBudget * 8 / 9;
    cfg.wpq.partialEntries = eight_ninths > 0 ? eight_ninths - 1 : 0;
    cfg.wpq.postEntries =
        o.wpqBudget > 6 ? eight_ninths - 4 : o.wpqBudget / 2;
    cfg.wpq.coalescing = !o.noCoalescing;
    cfg.secure.bmtPipeline = o.bmtPipeline;
    cfg.secure.scrubIntervalWrites = o.scrubInterval;
    if (o.spares)
        cfg.nvm.spareBlocks = *o.spares;
    // A zero budget is rejected by validateConfig below (loudly, via
    // the invalid_argument catch), not clamped.
    if (o.eadrBudget)
        cfg.eadr.energyBudgetCycles = *o.eadrBudget;
    std::optional<System> sys_storage;
    try {
        sys_storage.emplace(cfg);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return ExitUsage;
    }
    System &sys = *sys_storage;

    WorkloadParams params;
    params.txSize = o.txSize;
    params.numKeys = o.numKeys;
    params.seed = o.seed;
    params.thinkTime = o.thinkTime;
    auto wl = makeWorkload(o.workload, params);

    std::optional<CrashPlan> crash;
    if (o.crashAt) {
        crash.emplace();
        crash->atOp = *o.crashAt;
    }

    std::optional<stats::StatSampler> sampler;
    if (o.sampleInterval) {
        sampler.emplace(o.sampleInterval);
        sys.attachStatSampler(&*sampler);
        sampler->begin(sys.core().now());
    }

    std::optional<verify::FaultEpisode> fault;
    if (o.injectFault) {
        fault.emplace(sys, *o.injectFault, o.seed, o.mediaRegion);
        fault->arm();
    }
    // The scrubber runs only while the workload writes, so a metadata
    // fault meant for it lands after setup, before the measured
    // transactions. Every other fault strikes after the run.
    const bool strikeBeforeRun =
        fault && o.scrubInterval && o.mediaRegion != NvmRegion::Data;

    // --stats / --stats-json also report the run's host cost, so the
    // profile always comes from the machine the options describe.
    auto &profiler = prof::Profiler::instance();
    if (o.stats || !o.statsJsonFile.empty())
        profiler.enable();
    const auto host_start = std::chrono::steady_clock::now();
    RunResult res;
    try {
        if (strikeBeforeRun) {
            PmemEnv env(sys);
            wl->setup(env);
            fault->strikeMetadataEarly();
        }
        res = runWorkload(sys, *wl, o.txns, crash,
                          /*do_setup=*/!strikeBeforeRun);
    } catch (const std::invalid_argument &e) {
        // The workload outgrew a fixed region (undo log, heap): the
        // options asked for a machine that cannot run it.
        std::fprintf(stderr, "invalid workload configuration: %s\n",
                     e.what());
        return ExitUsage;
    }
    const double host_sec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                host_start)
                                .count();
    profiler.disable();

    if (sampler) {
        sampler->finish(sys.core().now());
        sys.attachStatSampler(nullptr);
        std::ofstream out(o.timelineFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.timelineFile.c_str());
            return 1;
        }
        const bool csv =
            o.timelineFile.size() > 4 &&
            o.timelineFile.compare(o.timelineFile.size() - 4, 4,
                                   ".csv") == 0;
        if (csv)
            sampler->dumpCsv(out);
        else
            sampler->dumpJson(out);
        std::printf("stats timeline      : %s (%zu windows)\n",
                    o.timelineFile.c_str(), sampler->windowCount());
    }

    std::printf("workload            : %s\n", res.workload.c_str());
    std::printf("mode                : %s\n",
                securityModeName(res.mode));
    std::printf("transactions        : %" PRIu64 "%s\n",
                std::uint64_t(res.transactions),
                res.crashed ? " (power failure injected)" : "");
    std::printf("cycles/transaction  : %.0f\n", res.cyclesPerTx());
    std::printf("CPI                 : %.3f\n", res.cpi);
    std::printf("retry events / KWR  : %.2f\n", res.retriesPerKwr);
    std::printf("fence stall cycles  : %" PRIu64 "\n",
                std::uint64_t(res.fenceStallCycles));
    std::printf("WPQ read hits       : %" PRIu64 "\n",
                std::uint64_t(res.wpqReadHits));
    std::printf("coalesced writes    : %" PRIu64 "\n",
                std::uint64_t(res.coalesces));
    std::printf("verified            : %s\n",
                res.verified ? "yes" : "NO");
    if (!res.verified)
        std::printf("  diagnostic: %s\n", res.verifyDiagnostic.c_str());
    std::printf("attacks detected    : %" PRIu64 "\n",
                std::uint64_t(sys.engine().attacksDetected()));

    if (fault) {
        const auto &rec = fault->strike(res.crashed);
        std::printf("fault injected      : %s%s (%s)\n",
                    verify::faultKindName(*o.injectFault),
                    rec.injected ? "" : " [no target found]",
                    rec.detail.c_str());
        std::printf("post-fault alarms   : %" PRIu64 "\n",
                    std::uint64_t(sys.engine().attacksDetected()));
        std::printf("media: retries %llu, healed %llu, quarantined "
                    "%zu blocks\n",
                    (unsigned long long)sys.nvmDevice().mediaRetries(),
                    (unsigned long long)sys.nvmDevice().mediaHealed(),
                    sys.nvmDevice().quarantineCount());
        std::printf("repairs: ctr %llu, tree %llu, mac %llu, "
                    "cascaded %llu, reanchored %llu\n",
                    (unsigned long long)
                        sys.engine().counterBlocksRebuilt(),
                    (unsigned long long)sys.engine().treeNodesRepaired(),
                    (unsigned long long)sys.engine().macBlocksRebuilt(),
                    (unsigned long long)sys.engine().cascadedBlocks(),
                    (unsigned long long)sys.engine().rootReanchors());
    }

    if (o.scrubInterval) {
        std::printf("scrub: %llu passes, %llu repairs\n",
                    (unsigned long long)sys.engine().scrubPasses(),
                    (unsigned long long)sys.engine().scrubRepairs());
    }

    if (!o.damageJsonFile.empty()) {
        if (o.damageJsonFile == "-") {
            sys.dumpDamageJson(std::cout);
        } else {
            std::ofstream out(o.damageJsonFile);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             o.damageJsonFile.c_str());
                return 1;
            }
            sys.dumpDamageJson(out);
            std::printf("damage json         : %s\n",
                        o.damageJsonFile.c_str());
        }
    }

    if (o.stats) {
        std::printf("\n");
        sys.dumpStats(std::cout);
        printHostReport(res, host_sec);
    }

    if (!o.statsJsonFile.empty()) {
        std::ofstream out(o.statsJsonFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.statsJsonFile.c_str());
            return 1;
        }
        writeStatsJson(out, sys, res, host_sec);
        std::printf("stats json          : %s\n",
                    o.statsJsonFile.c_str());
    }

#if DOLOS_TRACING
    if (!o.traceFile.empty()) {
        auto &tracer = trace::Tracer::instance();
        tracer.disable();
        std::ofstream out(o.traceFile);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.traceFile.c_str());
            return 1;
        }
        tracer.dump(out);
        std::printf("trace               : %s (%zu events, %" PRIu64
                    " dropped)\n",
                    o.traceFile.c_str(), tracer.size(),
                    tracer.dropped());
    }
#endif
    return exitCodeFor(res.verified, sys.attackDetected(),
                       sys.unrecoverableMedia());
}
