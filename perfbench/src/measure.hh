/**
 * @file
 * The benchmark's view of the simulator's layers.
 *
 * Everything here measures from outside: it calls the library's
 * public functions (System, PmemEnv, Workload, the stat groups,
 * verify::enumerateCrashPoints/runCrashPoint, the crypto classes) and
 * times those calls. Nothing inside src/ is instrumented; the traced
 * run records spans around these calls and, separately, switches the
 * library's own self-profiler on through its public API.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dolos/system.hh"
#include "sim/profiler.hh"
#include "verify/sweep_driver.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t);

/**
 * In-memory span recorder for the traced run. Spans nest through a
 * stack of open scopes, so each span names the span that caused it;
 * they are written out once, at the end, as a Chrome trace.
 */
class Tracer
{
  public:
    /** RAII span; records nothing while the tracer is off. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t;
        bool armed;
        std::size_t index = 0; ///< this span's slot in Tracer::spans
        Clock::time_point start;
    };

    void enable();
    std::size_t spanCount() const { return spans.size(); }

    /** Write every span as Chrome trace JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    /** A span's id is its index in spans plus one; 0 means no parent. */
    struct Span
    {
        const char *name;
        std::uint64_t parent;
        double startUs;
        double durUs;
    };

    bool on = false;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open; ///< ids of the open spans
};

/** Exclusive host time and scope entries per profiler component. */
struct ProfileTotals
{
    static constexpr std::size_t numComps =
        std::size_t(dolos::prof::Comp::NumComps);
    std::array<double, numComps> nanos{};
    std::array<std::uint64_t, numComps> calls{};
    double wallNanos = 0; ///< host time of the profiled windows

    void add(const ProfileTotals &o);
};

/**
 * Opens a self-profiler window when @p on: enable() on entry, and on
 * exit the window's counters are added to @p into and the profiler
 * is reset, so windows accumulate without touching each other.
 */
class ProfileWindow
{
  public:
    ProfileWindow(bool on, ProfileTotals &into);
    ~ProfileWindow();
    ProfileWindow(const ProfileWindow &) = delete;
    ProfileWindow &operator=(const ProfileWindow &) = delete;

  private:
    bool on;
    ProfileTotals &into;
    Clock::time_point start;
};

/** Change of every stat of a machine over an interval. */
struct StatDelta
{
    std::map<std::string, double> counts; ///< scalar differences
    std::map<std::string, double> means;  ///< averages' interval means

    /** A scalar's change; throws if the stat does not exist. */
    double count(const std::string &name) const;

    /** An average's mean over the interval (0 with no samples). */
    double mean(const std::string &name) const;

    bool operator==(const StatDelta &) const = default;
};

/** Snapshot of every scalar and average of a machine. */
struct StatSnapshot
{
    std::map<std::string, std::uint64_t> scalars;
    std::map<std::string, std::pair<double, std::uint64_t>> averages;

    static StatSnapshot take(dolos::System &sys);
    StatDelta deltaTo(const StatSnapshot &later) const;
};

/** One simulated machine configuration a workload runs on. */
struct LegSpec
{
    const char *name;         ///< "ideal", "prewpq", ...
    dolos::SystemConfig config;
};

/** What one leg (setup, transactions, verify) measured. */
struct LegResult
{
    // Simulated machine: deterministic for a fixed seed.
    std::vector<dolos::Tick> txCycles; ///< per Workload::transaction
    dolos::Tick runCycles = 0;
    StatDelta stats; ///< over the transaction phase

    // Host.
    double buildSec = 0;  ///< System construction
    double setupSec = 0;  ///< Workload::setup
    std::vector<double> chunkSec; ///< each txChunk transactions
    double verifySec = 0; ///< Workload::verify

    bool verified = false;
    bool attackDetected = false;
    std::string diagnostic;
    ProfileTotals profile; ///< transaction phase, traced run only

    double cyclesPerTx() const;
    bool passed() const { return verified && !attackDetected; }
};

/** Transactions per host-timed chunk of a leg's transaction loop. */
constexpr std::uint64_t txChunk = 50;

/**
 * Build the machine, set the workload up, run @p num_tx transactions
 * (timing each on the simulated clock, and each txChunk of them on the
 * host clock), and verify. @p profile enables the self-profiler over
 * the transaction loop.
 */
LegResult runLeg(const LegSpec &leg, const std::string &workload,
                 const dolos::workloads::WorkloadParams &params,
                 std::uint64_t num_tx, Tracer &tracer, bool profile);

/** workloads::runWorkload's cycles/tx for the same configuration. */
double runnerCyclesPerTx(const LegSpec &leg, const std::string &workload,
                         const dolos::workloads::WorkloadParams &params,
                         std::uint64_t num_tx);

/** What one pass over a set of crash points measured. */
struct CrashResult
{
    double probeSec = 0;            ///< enumerateCrashPoints
    std::size_t candidates = 0;     ///< points enumerated
    std::vector<double> pointSec;   ///< per runCrashPoint, in order
    std::size_t failures = 0;
    std::string firstFailure;
    ProfileTotals profile;          ///< the point loop, traced run only
};

/**
 * Enumerate the sweep's crash points and run @p budget of them
 * (evenly strided, offset by opt.sampleSeed; 0 = every point),
 * serially.
 */
CrashResult runCrashPoints(const dolos::verify::SweepOptions &opt,
                           std::size_t budget, Tracer &tracer,
                           bool profile);

/** Host cost of the crypto primitives on fixed inputs. */
struct CryptoTiming
{
    double aesNsPerBlock = 0;
    double macNsPer64B = 0;
};

/** Time AES-128 blocks and 64 B MACs, median of several batches. */
CryptoTiming timeCrypto(const dolos::SecureParams &params);

/** Nearest-rank quantile of @p v (sorted copy); 0 if empty. */
double quantile(std::vector<double> v, double q);

double median(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
