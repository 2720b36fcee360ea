/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload hashmap-burst|ycsb-light|crash-sweep
 *             --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * A reference pass first runs the workload on five machines ("legs":
 * ideal, prewpq, full, partial, post); the simulated metrics come from
 * it. Timed rounds then repeat a shorter prefix of every leg, plus a
 * set of microstep crash points on Dolos-Partial, until S seconds have
 * passed; the host metrics come from them. Every round must reproduce
 * the reference's simulated results bit for bit.
 * --trace 0 prints the end-to-end metrics; --trace 1 splits
 * the time into an untraced half and a traced half (spans plus the
 * self-profiler) and prints the per-layer metrics. The last line of
 * stdout is one JSON object: {correct, attempted, failed, metrics}.
 * See README.md for the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "measure.hh"
#include "sim/trace.hh"

using namespace dolos;
using namespace perfbench;

namespace
{

/** One benchmark workload: a program, its inputs and its machine. */
struct WorkloadSpec
{
    const char *name;
    std::string program;               ///< makeWorkload name
    workloads::WorkloadParams params;  ///< seed set from --seed
    SystemConfig machine;              ///< mode set per leg
    std::uint64_t simTx;               ///< per leg, reference pass
    std::uint64_t hostTx;              ///< per leg, each timed round
    std::uint64_t crashTx;             ///< prefix of the crash sweep
    std::size_t crashBudget;           ///< points per round; 0 = all
};

/**
 * The small-cache machine the repository's crash sweeps use
 * (dolos_torture --sweep): tiny caches push evictions to NVM within a
 * few transactions and a 2048-page tree keeps each rebuild cheap.
 */
SystemConfig
sweepMachine()
{
    auto cfg = SystemConfig::paperDefault();
    cfg.secure.functionalLeaves = 2048;
    cfg.secure.map.protectedBytes = Addr(2048) * pageBytes;
    cfg.hierarchy.l1 = {"l1", 1024, 2, 2};
    cfg.hierarchy.l2 = {"l2", 4096, 4, 20};
    cfg.hierarchy.llc = {"llc", 16384, 8, 32};
    return cfg;
}

/** The experiment drivers' preset for @p program (1024 B tx). */
workloads::WorkloadParams
preset(const std::string &program, std::uint64_t keys)
{
    bench::BenchOptions opts;
    opts.numKeys = keys;
    return bench::presetFor(program, opts);
}

std::vector<WorkloadSpec>
workloadSpecs()
{
    workloads::WorkloadParams sweep;
    sweep.txSize = 256;
    sweep.numKeys = 48;
    sweep.thinkTime = 400;
    sweep.readsPerTx = 1;
    return {
        // The paper's Table 1 machine, persist-path levers on.
        {"hashmap-burst", "hashmap", preset("hashmap", 1024),
         SystemConfig::paperDefault(), 2000, 1000, 4, 40},
        {"ycsb-light", "nstore-ycsb", preset("nstore-ycsb", 65536),
         SystemConfig::paperDefault(), 2000, 500, 4, 40},
        {"crash-sweep", "hashmap", sweep, sweepMachine(), 2000, 2000, 10,
         0},
    };
}

std::vector<LegSpec>
legsFor(const SystemConfig &machine)
{
    const std::pair<const char *, SecurityMode> modes[] = {
        {"ideal", SecurityMode::NonSecureIdeal},
        {"prewpq", SecurityMode::PreWpqSecure},
        {"full", SecurityMode::DolosFullWpq},
        {"partial", SecurityMode::DolosPartialWpq},
        {"post", SecurityMode::DolosPostWpq},
    };
    std::vector<LegSpec> legs;
    for (const auto &[name, mode] : modes) {
        SystemConfig cfg = machine;
        cfg.mode = mode;
        legs.push_back({name, cfg});
    }
    return legs;
}

/** One timed round: every leg's prefix, then the crash points. */
struct Round
{
    std::vector<LegResult> legs;
    CrashResult crash;

    std::uint64_t transactions() const
    {
        std::uint64_t n = 0;
        for (const auto &l : legs)
            n += l.txCycles.size();
        return n;
    }
};

struct Run
{
    WorkloadSpec spec;
    std::vector<LegSpec> legs;
    verify::SweepOptions sweep;
};

/** The reference pass: simTx transactions per leg, untimed. */
struct Reference
{
    std::vector<LegResult> legs;
    std::vector<double> runnerCyclesPerTx; ///< runWorkload, per leg
};

Reference
referencePass(const Run &run)
{
    Reference ref;
    Tracer off;
    for (const auto &leg : run.legs) {
        ref.legs.push_back(runLeg(leg, run.spec.program, run.spec.params,
                                  run.spec.simTx, off, false));
        ref.runnerCyclesPerTx.push_back(runnerCyclesPerTx(
            leg, run.spec.program, run.spec.params, run.spec.simTx));
    }
    return ref;
}

Round
runRound(const Run &run, Tracer &tracer, bool profile)
{
    Round r;
    for (const auto &leg : run.legs)
        r.legs.push_back(runLeg(leg, run.spec.program, run.spec.params,
                                run.spec.hostTx, tracer, profile));
    r.crash = runCrashPoints(run.sweep, run.spec.crashBudget, tracer, profile);
    return r;
}

/**
 * Repeat rounds for about @p seconds (at least @p min_rounds): stop
 * when another round of the last one's length would overrun.
 */
std::vector<Round>
measure(const Run &run, double seconds, unsigned min_rounds,
        Tracer &tracer, bool profile)
{
    std::vector<Round> rounds;
    const auto start = Clock::now();
    double last = 0;
    while (rounds.size() < min_rounds ||
           secondsSince(start) + last <= seconds) {
        const auto t = Clock::now();
        rounds.push_back(runRound(run, tracer, profile));
        last = secondsSince(t);
    }
    return rounds;
}

// --- Output -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
    const char *machine; ///< simulated | host
    const char *better;  ///< lower | higher
};

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const auto &m : ms)
        std::printf("  %-40s %18.6f %-10s %-9s %s\n", m.name.c_str(),
                    m.value, m.unit, m.machine, m.better);
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &ms)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i)
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
               number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
    out += "}}";
    std::printf("%s\n", out.c_str());
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

const LegResult &
leg(const std::vector<LegResult> &legs, const Run &run, const char *name)
{
    for (std::size_t i = 0; i < run.legs.size(); ++i)
        if (std::strcmp(run.legs[i].name, name) == 0)
            return legs[i];
    throw std::logic_error(std::string("no leg ") + name);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

template <typename F>
std::vector<double>
perRound(const std::vector<Round> &rounds, F f)
{
    std::vector<double> v;
    for (const auto &r : rounds)
        v.push_back(f(r));
    return v;
}

/**
 * Host time of work every round repeats identically (the simulator is
 * deterministic): for each item, by position, the 75th percentile of
 * its repetitions over the rounds. On the shared host this benchmark
 * was built on, the simulator alternates between a common speed and
 * stretches of 10-25 s where it runs about 30% faster; the upper
 * quartile follows the common speed whether or not a run happens to
 * include such a stretch. README.md "Host timing" gives the
 * measurements behind this choice.
 */
template <typename F>
std::vector<double>
typicalTime(const std::vector<Round> &rounds, F items)
{
    std::vector<double> out;
    const std::size_t n = items(rounds.front()).size();
    for (std::size_t j = 0; j < n; ++j)
        out.push_back(quantile(perRound(rounds,
                                        [&](const Round &r) {
                                            return items(r).at(j);
                                        }),
                               0.75));
    return out;
}

/** Host seconds of leg @p i's transaction loop. */
double
legTxSec(const std::vector<Round> &rounds, std::size_t i)
{
    const auto chunks =
        typicalTime(rounds, [i](const Round &r) -> const auto & {
            return r.legs[i].chunkSec;
        });
    return std::accumulate(chunks.begin(), chunks.end(), 0.0);
}

/** Simulated transactions per host second, pooled over the legs. */
double
txPerSec(const std::vector<Round> &rounds)
{
    double sec = 0;
    for (std::size_t i = 0; i < rounds.front().legs.size(); ++i)
        sec += legTxSec(rounds, i);
    return ratio(double(rounds.front().transactions()), sec);
}

/** Host seconds of each crash point. */
std::vector<double>
pointSec(const std::vector<Round> &rounds)
{
    return typicalTime(rounds, [](const Round &r) -> const auto & {
        return r.crash.pointSec;
    });
}

/** Mean host time of the last decile of points over the first. */
double
lateEarlyRatio(const std::vector<double> &pts)
{
    const std::size_t d = std::max<std::size_t>(1, pts.size() / 10);
    double early = 0, late = 0;
    for (std::size_t i = 0; i < d; ++i) {
        early += pts[i];
        late += pts[pts.size() - 1 - i];
    }
    return ratio(late, early);
}

std::vector<Metric>
endToEnd(const Run &run, const Reference &ref,
         const std::vector<Round> &rounds)
{
    std::vector<Metric> ms;
    for (std::size_t i = 0; i < run.legs.size(); ++i)
        ms.push_back({std::string("cycles_per_tx.") + run.legs[i].name,
                      ref.legs[i].cyclesPerTx(), "cycles", "simulated",
                      "lower"});
    std::vector<double> lat;
    for (const Tick c : leg(ref.legs, run, "partial").txCycles)
        lat.push_back(double(c));
    ms.push_back({"tx_cycles_p50.partial", quantile(lat, 0.50), "cycles",
                  "simulated", "lower"});
    ms.push_back({"tx_cycles_p99.partial", quantile(lat, 0.99), "cycles",
                  "simulated", "lower"});
    ms.push_back({"host_tx_per_s", txPerSec(rounds), "tx/s", "host",
                  "higher"});
    const std::vector<double> points = pointSec(rounds);
    ms.push_back({"crash_points_per_s",
                  ratio(double(points.size()),
                        std::accumulate(points.begin(), points.end(), 0.0)),
                  "points/s",
                  "host", "higher"});
    // Set-up: each leg's median over the rounds, summed over legs.
    double setup = 0;
    for (std::size_t i = 0; i < run.legs.size(); ++i)
        setup += median(perRound(rounds, [i](const Round &r) {
            return r.legs[i].buildSec + r.legs[i].setupSec;
        }));
    ms.push_back({"setup_s", setup, "s", "host", "lower"});
    ms.push_back({"peak_rss_mb", peakRssMb(), "MB", "host", "lower"});
    return ms;
}

/** Simulated per-layer counters of one leg, over its transactions. */
void
simulatedLayers(std::vector<Metric> &ms, const LegResult &l,
                const std::string &leg_name, bool dolos_mode)
{
    const StatDelta &s = l.stats;
    const double tx = double(l.txCycles.size());
    const double writes = s.count("mc.writeRequests");
    const double secWrites = s.count("secEngine.writes");
    const auto hitRatio = [&](const std::string &cache) {
        const double hits = s.count(cache + ".hits");
        return ratio(hits, hits + s.count(cache + ".misses"));
    };
    const auto add = [&](const char *n, double v, const char *unit,
                         const char *better) {
        ms.push_back({n + ("." + leg_name), v, unit, "simulated", better});
    };
    add("cpu.fence_stall_cycles_per_tx",
        s.count("core.fenceStallCycles") / tx, "cycles", "lower");
    add("cpu.fence_wait_mean", s.mean("core.fenceWait"), "cycles", "lower");
    add("dolos.retries_per_kwr",
        1000 * ratio(s.count("mc.retryEvents"), writes), "1/kwr", "lower");
    add("dolos.wpq_stall_cycles_per_tx", s.count("mc.wpqStallCycles") / tx,
        "cycles", "lower");
    add("dolos.wpq_occupancy_mean", s.mean("mc.occupancy"), "entries",
        "lower");
    add("dolos.persist_latency_mean", s.mean("mc.persistLatency"), "cycles",
        "lower");
    add("dolos.drain_latency_mean", s.mean("mc.drainLatency"), "cycles",
        "lower");
    add("dolos.coalesce_ratio", ratio(s.count("mc.coalesces"), writes),
        "ratio", "higher");
    add("dolos.drains_batched", s.count("mc.drainsBatched"), "count",
        "higher");
    if (dolos_mode)
        add("dolos.misu.mac_cycles_per_tx",
            s.count("mc.misu.macCycles") / tx, "cycles", "lower");
    add("secure.bmt_cycles_per_write",
        ratio(s.count("secEngine.bmtCycles"), secWrites), "cycles", "lower");
    add("secure.mac_cycles_per_write",
        ratio(s.count("secEngine.macCycles"), secWrites), "cycles", "lower");
    add("secure.aes_cycles_per_write",
        ratio(s.count("secEngine.aesCycles"), secWrites), "cycles", "lower");
    add("secure.ctr_fetch_cycles_per_write",
        ratio(s.count("secEngine.ctrFetchCycles"), secWrites), "cycles",
        "lower");
    // bmtCoalescedUpdates counts tree levels, not writes.
    add("secure.bmt_levels_coalesced_per_write",
        ratio(s.count("secEngine.bmtCoalescedUpdates"), secWrites),
        "levels", "higher");
    add("secure.counter_cache.hit_ratio", hitRatio("secEngine.counterCache"),
        "ratio", "higher");
    add("secure.mt_cache.hit_ratio", hitRatio("secEngine.mtCache"), "ratio",
        "higher");
    if (dolos_mode)
        add("secure.tag_prefetch.hit_ratio",
            ratio(s.count("secEngine.tagPrefetchHits"),
                  s.count("secEngine.tagPrefetchIssued")),
            "ratio", "higher");
    add("secure.read_latency_mean", s.mean("secEngine.readLatency"),
        "cycles", "lower");
    add("secure.write_latency_mean", s.mean("secEngine.writeLatency"),
        "cycles", "lower");
    add("mem.l1.miss_ratio", 1.0 - hitRatio("hierarchy.l1"), "ratio",
        "lower");
    add("mem.llc.misses_per_tx", s.count("hierarchy.llc.misses") / tx,
        "count", "lower");
    add("mem.nvm.write_queueing_mean", s.mean("nvm.writeQueueing"),
        "cycles", "lower");
    add("mem.nvm.read_queueing_mean", s.mean("nvm.readQueueing"), "cycles",
        "lower");
    add("mem.nvm.bank_conflicts_per_kwr",
        1000 * ratio(s.count("nvm.bankConflicts"), writes), "1/kwr",
        "lower");
}

std::vector<Metric>
perLayer(const Run &run, const Reference &ref,
         const std::vector<Round> &untraced,
         const std::vector<Round> &traced, const CryptoTiming &crypto,
         std::size_t spans)
{
    using prof::Comp;
    std::vector<Metric> ms;
    simulatedLayers(ms, leg(ref.legs, run, "partial"), "partial", true);
    simulatedLayers(ms, leg(ref.legs, run, "prewpq"), "prewpq", false);

    // Speedups over Pre-WPQ: information only, never gated.
    const double base = leg(ref.legs, run, "prewpq").cyclesPerTx();
    for (const char *l : {"ideal", "full", "partial", "post"})
        ms.push_back({std::string("info.speedup.") + l,
                      ratio(base, leg(ref.legs, run, l).cyclesPerTx()), "x",
                      "simulated", "higher"});
    ms.push_back({"info.tx_samples.partial",
                  double(leg(ref.legs, run, "partial").txCycles.size()),
                  "count", "simulated", "higher"});

    // Crypto: timed on fixed inputs, and counted per secure write on
    // the traced partial leg (profiled scope entries).
    ProfileTotals partialProf;
    double partialWrites = 0;
    for (const auto &r : traced) {
        const LegResult &l = leg(r.legs, run, "partial");
        partialProf.add(l.profile);
        partialWrites += l.stats.count("secEngine.writes");
    }
    ms.push_back({"crypto.aes_ns_per_block", crypto.aesNsPerBlock, "ns",
                  "host", "lower"});
    ms.push_back({"crypto.mac_ns_per_64b", crypto.macNsPer64B, "ns", "host",
                  "lower"});
    ms.push_back({"crypto.aes_calls_per_secure_write",
                  ratio(double(partialProf.calls[std::size_t(Comp::Aes)]),
                        partialWrites),
                  "count", "host", "lower"});
    ms.push_back({"crypto.mac_calls_per_secure_write",
                  ratio(double(partialProf.calls[std::size_t(Comp::Mac)]),
                        partialWrites),
                  "count", "host", "lower"});

    // Host time per simulator component over the legs' transactions.
    ProfileTotals legsProf, crashProf;
    double tx = 0;
    for (const auto &r : traced) {
        for (const auto &l : r.legs)
            legsProf.add(l.profile);
        crashProf.add(r.crash.profile);
        tx += double(r.transactions());
    }
    double attributed = 0;
    const Comp comps[] = {Comp::Core, Comp::CacheModel, Comp::Controller,
                          Comp::SecurityEngine, Comp::Aes, Comp::Mac,
                          Comp::CtrPad, Comp::Nvm};
    for (const Comp c : comps) {
        const double ns = legsProf.nanos[std::size_t(c)];
        attributed += ns;
        const std::string n = std::string("host.") + prof::compName(c);
        ms.push_back({n + ".ns_per_tx", ratio(ns, tx), "ns", "host",
                      "lower"});
        ms.push_back({n + ".share", ratio(ns, legsProf.wallNanos), "ratio",
                      "host", "lower"});
    }
    ms.push_back({"host.unattributed_share",
                  1.0 - ratio(attributed, legsProf.wallNanos), "ratio",
                  "host", "lower"});
    for (std::size_t i = 0; i < run.legs.size(); ++i)
        ms.push_back({std::string("host.ns_per_tx.") + run.legs[i].name,
                      legTxSec(untraced, i) * 1e9 / double(run.spec.hostTx),
                      "ns", "host", "lower"});

    // Workload set-up and verification.
    std::vector<double> build, setup, check;
    for (const auto &r : untraced)
        for (const auto &l : r.legs) {
            build.push_back(l.buildSec);
            setup.push_back(l.setupSec);
            check.push_back(l.verifySec);
        }
    ms.push_back({"workloads.system_build_s", median(build), "s", "host",
                  "lower"});
    ms.push_back({"workloads.setup_s", median(setup), "s", "host", "lower"});
    ms.push_back({"workloads.verify_s", median(check), "s", "host", "lower"});

    // Crash points (untraced rounds; the profile from the traced ones).
    const std::vector<double> pointS = pointSec(untraced);
    std::vector<double> pointMs;
    for (const double s : pointS)
        pointMs.push_back(s * 1e3);
    const CrashResult &crash = untraced.front().crash;
    const double points = double(crash.pointSec.size());
    ms.push_back({"verify.points", points, "count", "host", "higher"});
    ms.push_back({"verify.candidates", double(crash.candidates), "count",
                  "host", "higher"});
    ms.push_back({"verify.probe_s",
                  median(perRound(untraced,
                                  [](const Round &r) {
                                      return r.crash.probeSec;
                                  })),
                  "s", "host", "lower"});
    ms.push_back({"verify.point_ms_p50", quantile(pointMs, 0.50), "ms",
                  "host", "lower"});
    ms.push_back({"verify.point_ms_p99", quantile(pointMs, 0.99), "ms",
                  "host", "lower"});
    ms.push_back({"verify.late_early_ratio", lateEarlyRatio(pointS),
                  "ratio", "host", "lower"});
    const double oracleNs = crashProf.nanos[std::size_t(Comp::Verify)];
    ms.push_back({"host.verify.ns_per_point",
                  ratio(oracleNs, points * double(traced.size())), "ns",
                  "host", "lower"});
    ms.push_back({"host.verify.share", ratio(oracleNs, crashProf.wallNanos),
                  "ratio", "host", "lower"});
    double cryptoNs = 0;
    for (const Comp c : {Comp::Aes, Comp::Mac, Comp::Sha, Comp::CtrPad})
        cryptoNs += crashProf.nanos[std::size_t(c)];
    ms.push_back({"verify.crypto_share",
                  ratio(cryptoNs, crashProf.wallNanos), "ratio", "host",
                  "lower"});

    // What tracing cost.
    const double plain = txPerSec(untraced);
    const double withTrace = txPerSec(traced);
    ms.push_back({"trace.overhead_tx_per_s", plain - withTrace, "tx/s",
                  "host", "lower"});
    ms.push_back({"trace.overhead_share", ratio(plain - withTrace, plain),
                  "ratio", "host", "lower"});
    ms.push_back({"trace.spans", double(spans), "count", "host", "higher"});
    return ms;
}

/** Count a leg as attempted, and as failed when @p why is set. */
void
tally(const Run &run, std::size_t i, const LegResult &l, const char *why,
      std::uint64_t &attempted, std::uint64_t &failed)
{
    ++attempted;
    if (!why && !l.passed())
        why = l.attackDetected ? "attack detected" : "verify failed";
    if (why) {
        ++failed;
        std::fprintf(stderr, "FAILED leg %s (%s): %s %s\n",
                     run.legs[i].name, run.spec.name, why,
                     l.diagnostic.c_str());
    }
}

/**
 * Output checks. A leg fails if its workload does not verify or an
 * attack is flagged. A reference leg also fails if its cycles/tx
 * differs from runWorkload's for the same configuration; a timed leg,
 * if its per-transaction cycles are not a prefix of the reference's
 * or its stat deltas differ from the first round's. A crash point
 * fails on any sweep verdict failure.
 */
void
check(const Run &run, const Reference &ref, const std::vector<Round> &rounds,
      std::uint64_t &attempted, std::uint64_t &failed)
{
    for (std::size_t i = 0; i < ref.legs.size(); ++i)
        tally(run, i, ref.legs[i],
              ref.legs[i].cyclesPerTx() != ref.runnerCyclesPerTx[i]
                  ? "cycles/tx differs from runWorkload"
                  : nullptr,
              attempted, failed);
    for (const auto &r : rounds) {
        for (std::size_t i = 0; i < r.legs.size(); ++i) {
            const auto &timed = r.legs[i].txCycles;
            const auto &all = ref.legs[i].txCycles;
            const bool prefix =
                timed.size() <= all.size() &&
                std::equal(timed.begin(), timed.end(), all.begin());
            tally(run, i, r.legs[i],
                  !prefix ? "cycles differ from the reference pass"
                  : !(r.legs[i].stats == rounds.front().legs[i].stats)
                      ? "stats drifted between rounds"
                      : nullptr,
                  attempted, failed);
        }
        attempted += r.crash.pointSec.size();
        failed += r.crash.failures;
        if (r.crash.failures)
            std::fprintf(stderr, "FAILED %zu crash points, first: %s\n",
                         r.crash.failures, r.crash.firstFailure.c_str());
    }
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "hashmap-burst|ycsb-light|crash-sweep --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        const auto num = [&] {
            const auto n = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage(("bad number for " + k).c_str());
            return n;
        };
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = num();
        else if (k == "--seconds")
            a.seconds = double(num());
        else if (k == "--trace")
            a.trace = num() != 0;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            usage(("unknown option " + k).c_str());
    }
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const auto specs = workloadSpecs();
    const WorkloadSpec *spec = nullptr;
    for (const auto &s : specs)
        if (args.workload == s.name)
            spec = &s;
    if (!spec)
        usage(("unknown workload '" + args.workload + "'").c_str());

    try {
        Run run{*spec, legsFor(spec->machine), {}};
        run.spec.params.seed = args.seed;
        run.sweep.mode = SecurityMode::DolosPartialWpq;
        run.sweep.workload = spec->program;
        run.sweep.numTx = spec->crashTx;
        run.sweep.params = run.spec.params;
        run.sweep.base = spec->machine;
        run.sweep.pointSet = verify::CrashPoints::Microstep;
        run.sweep.sampleSeed = args.seed;

        std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                    spec->name, (unsigned long long)args.seed, args.seconds,
                    int(args.trace));
        std::printf("build: compiler=\"%s\" build_type=%s "
                    "DOLOS_SELFPROF=%d DOLOS_TRACING=%d nproc=%u\n",
                    __VERSION__, PERFBENCH_BUILD_TYPE, DOLOS_SELFPROF,
                    DOLOS_TRACING, std::thread::hardware_concurrency());
        std::printf("workload: %s, %llu keys, %u B tx, think %llu cycles, "
                    "%llu tx per leg (%llu per timed round); crash points: "
                    "%llu-tx prefix, %s\n",
                    spec->program.c_str(),
                    (unsigned long long)spec->params.numKeys,
                    spec->params.txSize,
                    (unsigned long long)spec->params.thinkTime,
                    (unsigned long long)spec->simTx,
                    (unsigned long long)spec->hostTx,
                    (unsigned long long)spec->crashTx,
                    spec->crashBudget
                        ? (std::to_string(spec->crashBudget) +
                           " strided points")
                              .c_str()
                        : "exhaustive");

        // Simulated metrics; also warms the allocator and caches.
        const Reference ref = referencePass(run);

        Tracer tracer;
        const double untracedSec =
            args.trace ? args.seconds / 2 : args.seconds;
        const auto rounds =
            measure(run, untracedSec, args.trace ? 2 : 3, tracer, false);
        std::vector<Round> traced;
        CryptoTiming crypto;
        if (args.trace) {
            tracer.enable();
            traced = measure(run, args.seconds / 2, 1, tracer,
                             DOLOS_SELFPROF != 0);
            crypto = timeCrypto(spec->machine.secure);
        }

        std::uint64_t attempted = 0, failed = 0;
        check(run, ref, rounds, attempted, failed);
        check(run, ref, traced, attempted, failed);

        const auto e2e = endToEnd(run, ref, rounds);
        std::printf("rounds: %zu untraced, %zu traced; failed_frac %.6f "
                    "(%llu of %llu legs and crash points)\n",
                    rounds.size(), traced.size(),
                    ratio(double(failed), double(attempted)),
                    (unsigned long long)failed,
                    (unsigned long long)attempted);
        if (!args.trace) {
            printTable("end-to-end metrics:", e2e);
            printResult(failed == 0, attempted, failed, e2e);
            return 0;
        }

        const auto layers =
            perLayer(run, ref, rounds, traced, crypto, tracer.spanCount());
        printTable("per-layer metrics:", layers);
        if (!args.traceOut.empty()) {
            if (!tracer.write(args.traceOut))
                throw std::runtime_error("cannot write " + args.traceOut);
            std::printf("spans: %zu written to %s\n", tracer.spanCount(),
                        args.traceOut.c_str());
        }
        printResult(failed == 0, attempted, failed, layers);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
