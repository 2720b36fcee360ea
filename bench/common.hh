/**
 * @file
 * Shared infrastructure for the experiment drivers.
 *
 * Each bench binary regenerates one table or figure of the paper:
 * it sweeps the relevant parameter, runs the six workloads on the
 * relevant controller modes, and prints the same rows/series the
 * paper reports. `--txns N` selects the per-run transaction count
 * (default 2000 for quick runs; `--full` selects the paper's 50000).
 * `--json [FILE]` additionally writes the computed series as a
 * machine-readable BENCH_<name>.json artifact (see
 * docs/observability.md); `tools/dolos_report` diffs two of them.
 */

#ifndef DOLOS_BENCH_COMMON_HH
#define DOLOS_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cli.hh"
#include "sim/json.hh"
#include "workloads/runner.hh"

namespace dolos::bench
{

/** Command-line options shared by all experiment drivers. */
struct BenchOptions
{
    std::uint64_t txns = 2000;
    std::uint64_t numKeys = 1024;
    std::uint64_t seed = 42;
    bool verify = true;
    bool json = false;     ///< write a BENCH_<name>.json artifact
    std::string jsonFile;  ///< override the artifact path
    bool bmtPipeline = true; ///< --opt-knobs all|none (none = the
                             ///< paper's serial Ma-SU)

    [[noreturn]] static void
    usage(int code)
    {
        std::printf("options: --txns N | --full | --keys N | --seed N"
                    " | --no-verify | --json [FILE]"
                    " | --opt-knobs all|none (none = paper's machine)\n");
        std::exit(code);
    }

    static BenchOptions
    parse(int argc, char **argv)
    {
        BenchOptions o;
        CliReader r(argc, argv, 1, usage);
        while (r.next()) {
            if (r.is("--txns")) {
                o.txns = r.number();
            } else if (r.is("--full")) {
                o.txns = 50000;
            } else if (r.is("--keys")) {
                o.numKeys = r.number();
            } else if (r.is("--seed")) {
                o.seed = r.number();
            } else if (r.is("--no-verify")) {
                o.verify = false;
            } else if (r.is("--json")) {
                o.json = true;
                // Optional value: a path that names the artifact.
                o.jsonFile = r.optionalValue().value_or("");
            } else if (r.is("--opt-knobs")) {
                o.bmtPipeline =
                    r.parsed(parsePipelineSpec, "bad --opt-knobs spec");
            } else {
                r.unknown();
            }
        }
        return o;
    }
};

/**
 * Machine-readable result artifact for one experiment driver.
 *
 * Drivers add each computed number as a (label, value) point while
 * printing their human-readable table, then call write() which emits
 * BENCH_<name>.json when the user passed --json. Labels become JSON
 * keys, so two artifacts from the same driver diff cleanly with
 * `tools/dolos_report old.json new.json`.
 */
class BenchReport
{
  public:
    BenchReport(std::string name, const BenchOptions &opts)
        : name_(std::move(name)), opts_(opts)
    {
    }

    /** Record one numeric result, e.g. add("hashmap.speedup", 1.7). */
    void
    add(const std::string &label, double value)
    {
        points_.emplace_back(label, value);
    }

    /**
     * Write BENCH_<name>.json (or the --json FILE override) if the
     * user asked for it. Returns the path written, or "" if not.
     */
    std::string
    write() const
    {
        if (!opts_.json)
            return "";
        const std::string path = opts_.jsonFile.empty()
                                     ? "BENCH_" + name_ + ".json"
                                     : opts_.jsonFile;
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            std::exit(1);
        }
        out << "{\"bench\":\"" << json::escape(name_) << "\""
            << ",\"txns\":" << opts_.txns
            << ",\"keys\":" << opts_.numKeys
            << ",\"seed\":" << opts_.seed << ",\"results\":{";
        bool first = true;
        for (const auto &[label, value] : points_) {
            if (!first)
                out << ",";
            first = false;
            out << "\"" << json::escape(label) << "\":";
            if (std::isfinite(value)) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.17g", value);
                out << buf;
            } else {
                out << "null";
            }
        }
        out << "}}\n";
        std::printf("wrote %s (%zu results)\n", path.c_str(),
                    points_.size());
        return path;
    }

  private:
    std::string name_;
    BenchOptions opts_;
    std::vector<std::pair<std::string, double>> points_;
};

/**
 * Per-workload parameter presets. The six WHISPER-like workloads
 * differ in write burstiness and read mix; these presets set the
 * contrast the paper's Table 2 shows (hashmap heaviest WPQ pressure,
 * nstore-ycsb lightest).
 */
inline workloads::WorkloadParams
presetFor(const std::string &workload, const BenchOptions &opts,
          unsigned tx_size = 1024)
{
    workloads::WorkloadParams p;
    p.txSize = tx_size;
    p.numKeys = opts.numKeys;
    p.seed = opts.seed;

    // A transaction's non-memory work scales with the data it
    // touches; the per-block coefficients set each workload's ratio
    // of compute to persist traffic, which is what differentiates
    // the WHISPER applications' WPQ pressure (Table 2): hashmap
    // issues its bursts nearly back-to-back, NStore:YCSB leaves the
    // WPQ time to drain.
    const unsigned payload_blocks = (tx_size + blockSize - 1) / blockSize;
    Cycles per_block = 3800;
    if (workload == "hashmap") {
        per_block = 3300;
        p.readsPerTx = 1;
    } else if (workload == "ctree") {
        per_block = 3600;
        p.readsPerTx = 1;
    } else if (workload == "btree") {
        per_block = 3800;
        p.readsPerTx = 2;
    } else if (workload == "rbtree") {
        per_block = 3700;
        p.readsPerTx = 2;
    } else if (workload == "nstore-ycsb") {
        per_block = 4700;
        p.readsPerTx = 1;
    } else if (workload == "redis") {
        per_block = 3600;
        p.readsPerTx = 2;
    }
    // Fixed per-transaction work (lookup, dispatch) plus the
    // payload-proportional part.
    p.thinkTime = 8000 + per_block * payload_blocks;
    return p;
}

/** A driver's change to the machine, applied after the knob spec. */
using ConfigTweak = std::function<void(SystemConfig &)>;

/**
 * The paper's machine in @p mode, with the --opt-knobs lever and
 * then @p tweak applied.
 */
inline SystemConfig
benchConfig(SecurityMode mode, const BenchOptions &opts,
            const ConfigTweak &tweak = {})
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    cfg.secure.bmtPipeline = opts.bmtPipeline;
    if (tweak)
        tweak(cfg);
    return cfg;
}

/** Run @p workload on @p sys; exit 1 if verification is on and fails. */
inline workloads::RunResult
runVerified(System &sys, const std::string &workload,
            const workloads::WorkloadParams &params,
            const BenchOptions &opts)
{
    auto wl = workloads::makeWorkload(workload, params);
    auto res = workloads::runWorkload(sys, *wl, opts.txns);
    if (opts.verify && !res.verified) {
        std::fprintf(stderr, "VERIFICATION FAILED: %s on %s: %s\n",
                     workload.c_str(), securityModeName(res.mode),
                     res.verifyDiagnostic.c_str());
        std::exit(1);
    }
    return res;
}

/** Run one workload's preset on benchConfig(mode, opts, tweak). */
inline workloads::RunResult
runOne(const std::string &workload, SecurityMode mode,
       const BenchOptions &opts, unsigned tx_size = 1024,
       const ConfigTweak &tweak = {})
{
    System sys(benchConfig(mode, opts, tweak));
    return runVerified(sys, workload, presetFor(workload, opts, tx_size),
                       opts);
}

/** Geometric mean. */
inline double
geomean(const std::vector<double> &v)
{
    double acc = 0;
    for (const double x : v)
        acc += std::log(x);
    return v.empty() ? 0.0 : std::exp(acc / double(v.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &v)
{
    double acc = 0;
    for (const double x : v)
        acc += x;
    return v.empty() ? 0.0 : acc / double(v.size());
}

/** Print the standard experiment header. */
inline void
printHeader(const char *experiment, const char *paper_result,
            const BenchOptions &opts)
{
    std::printf("=====================================================\n");
    std::printf("%s\n", experiment);
    std::printf("paper: %s\n", paper_result);
    std::printf("config: Table 1 (4GHz OoO->in-order core model, "
                "L1 32KB / L2 512KB / LLC 8MB,\n"
                "        PCM read 150ns write 500ns, AES 40cyc, "
                "MAC 160cyc, 8-ary trees)\n");
    std::printf("run: %llu transactions per (workload, mode)\n",
                (unsigned long long)opts.txns);
    std::printf("=====================================================\n");
}

} // namespace dolos::bench

#endif // DOLOS_BENCH_COMMON_HH
