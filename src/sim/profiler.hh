/**
 * @file
 * Host-side self-profiler: wall-clock attribution for the simulator.
 *
 * The simulator's own speed is a first-class concern (ROADMAP: "make
 * the simulator as fast as the hardware allows"), and tuning it needs
 * a profile, not a guess. Instrumentation sites wrap a scope in
 * DOLOS_PROF_SCOPE(Comp), an RAII timer that attributes *exclusive*
 * host nanoseconds to one component: when a SecurityEngine scope
 * calls into an Aes scope, the inner time counts toward Aes only, so
 * the per-component shares sum to the attributed total instead of
 * double-counting nested work.
 *
 * This measures host wall-clock only — it never reads or advances
 * simulated time, so profiling cannot perturb any measured metric.
 *
 * Like DOLOS_TRACE, the sites compile out entirely with
 * -DDOLOS_SELFPROF=0 (CMake option DOLOS_SELFPROF=OFF) and cost one
 * predicted-not-taken branch when compiled in but not enabled.
 * `dolos-sim --selfbench` runs the profiler over a workload and
 * reports events/sec plus the per-component shares
 * (src/workloads/selfbench.hh).
 */

#ifndef DOLOS_SIM_PROFILER_HH
#define DOLOS_SIM_PROFILER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>

#ifndef DOLOS_SELFPROF
#define DOLOS_SELFPROF 1
#endif

namespace dolos::prof
{

/** Component a profiled scope attributes its host time to. */
enum class Comp : std::uint8_t
{
    Core,           ///< SimpleCore operation bookkeeping
    CacheModel,     ///< cache hierarchy lookups/fills
    Controller,     ///< memory controller + WPQ machinery
    SecurityEngine, ///< Ma-SU orchestration (minus crypto below)
    Aes,            ///< AES block en/decryption
    Mac,            ///< MAC computation (HMAC/SipHash)
    Sha,            ///< SHA-256 compression
    CtrPad,         ///< counter-mode pad generation
    Nvm,            ///< NVM device timing + backing store
    Verify,         ///< golden-model diff / verify machinery
    NumComps
};

/** Stable report name of a component ("aes", "cacheModel", ...). */
const char *compName(Comp c);

/**
 * The process-wide profiler all DOLOS_PROF_SCOPE sites record into.
 *
 * Maintains a stack of open scopes and a per-component exclusive
 * nanosecond accumulator; push/pop re-stamp the clock so each span
 * of host time lands in exactly one component.
 */
class Profiler
{
  public:
    static Profiler &instance();

    /** Zero all counters and start attributing. */
    void enable();

    /** Stop attributing (accumulated numbers are kept). */
    void disable();

    /** Profiling enabled? (The DOLOS_PROF_SCOPE fast-path check.) */
    bool active() const { return active_; }

    /** Zero all counters and the scope stack. */
    void reset();

    /** Open a scope (call through DOLOS_PROF_SCOPE, not directly). */
    void push(Comp c);

    /** Close the innermost open scope. */
    void pop();

    /** Exclusive host nanoseconds attributed to @p c. */
    std::uint64_t exclusiveNanos(Comp c) const
    {
        return nanos_[index(c)];
    }

    /** Times a @p c scope was entered. */
    std::uint64_t calls(Comp c) const { return calls_[index(c)]; }

    /** Sum of exclusive nanoseconds across all components. */
    std::uint64_t attributedNanos() const;

    /** Human-readable table: component, seconds, share, calls. */
    void report(std::ostream &os) const;

    /**
     * {"selfprof":{"attributedSec":...,"components":{name:
     * {"seconds":...,"share":...,"calls":...}}}} — components in
     * fixed enum order (deterministic, byte-diffable).
     */
    void reportJson(std::ostream &os) const;

  private:
    static constexpr std::size_t numComps =
        static_cast<std::size_t>(Comp::NumComps);
    static constexpr std::size_t maxDepth = 64;

    static std::size_t index(Comp c)
    {
        return static_cast<std::size_t>(c);
    }

    std::array<std::uint64_t, numComps> nanos_{};
    std::array<std::uint64_t, numComps> calls_{};
    std::array<Comp, maxDepth> stack_{};
    std::size_t depth_ = 0;
    std::uint64_t lastStamp_ = 0;
    bool active_ = false;
};

/** RAII frame for one DOLOS_PROF_SCOPE site. */
class ScopedProf
{
  public:
    explicit ScopedProf(Comp c)
    {
        auto &p = Profiler::instance();
        armed = p.active();
        if (armed) [[unlikely]]
            p.push(c);
    }

    ~ScopedProf()
    {
        if (armed) [[unlikely]]
            Profiler::instance().pop();
    }

    ScopedProf(const ScopedProf &) = delete;
    ScopedProf &operator=(const ScopedProf &) = delete;

  private:
    bool armed;
};

} // namespace dolos::prof

#if DOLOS_SELFPROF
#define DOLOS_PROF_CAT2(a, b) a##b
#define DOLOS_PROF_CAT(a, b) DOLOS_PROF_CAT2(a, b)
#define DOLOS_PROF_SCOPE(comp)                                         \
    ::dolos::prof::ScopedProf DOLOS_PROF_CAT(dolos_prof_, __LINE__)(   \
        ::dolos::prof::Comp::comp)
#else
// Mention the component inside an unevaluated sizeof so the name is
// still spell-checked by the compiler in a -DDOLOS_SELFPROF=OFF
// build, while evaluating nothing (the zero-overhead invariant).
#define DOLOS_PROF_SCOPE(comp)                                         \
    ((void)sizeof(::dolos::prof::Comp::comp), (void)0)
#endif

#endif // DOLOS_SIM_PROFILER_HH
