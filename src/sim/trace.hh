/**
 * @file
 * Low-overhead event tracer for the persist critical path.
 *
 * Components record the lifecycle of every write — CLWB issue, WPQ
 * insertion/stall, Mi-SU pad XOR and MAC, Ma-SU counter fetch, AES,
 * data MAC, BMT climb, and NVM bank commits — as (stage, start, end,
 * addr, id) records in a fixed-capacity ring buffer. Recording never
 * touches simulated time, so enabling the tracer changes no measured
 * metric; when the ring fills, the oldest events are overwritten and
 * counted as dropped.
 *
 * dump() emits the buffer as a Chrome trace_event JSON array (load it
 * at chrome://tracing or https://ui.perfetto.dev). One simulated tick
 * is rendered as one microsecond so the viewer's time axis reads
 * directly in cycles.
 *
 * Instrumentation sites use the DOLOS_TRACE macro, which compiles to
 * nothing when the build disables tracing (-DDOLOS_TRACING=0, CMake
 * option DOLOS_TRACING=OFF) and to a single predicted-not-taken
 * branch when tracing is compiled in but not enabled at run time.
 */

#ifndef DOLOS_SIM_TRACE_HH
#define DOLOS_SIM_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/types.hh"

#ifndef DOLOS_TRACING
#define DOLOS_TRACING 1
#endif

namespace dolos::trace
{

/** Pipeline stage a trace event belongs to (one viewer lane each). */
enum class Stage : std::uint8_t
{
    CoreClwb,     ///< CLWB issue -> persistence-domain entry
    CoreFence,    ///< SFENCE stall window
    WpqStall,     ///< insertion blocked on a full WPQ
    WpqInsert,    ///< controller arrival -> WPQ commit
    WpqCoalesce,  ///< write merged into a live entry
    WpqDrain,     ///< WPQ commit -> Ma-SU clear
    MisuPadXor,   ///< Mi-SU pad XOR (1 cycle)
    MisuMac,      ///< Mi-SU entry/root MAC(s)
    MasuCtrFetch, ///< counter fetch (cache miss => NVM + tree walk)
    MasuAes,      ///< Ma-SU pad generation (AES)
    MasuMac,      ///< Ma-SU data MAC
    MasuBmt,      ///< integrity-tree (BMT) climb
    NvmRead,      ///< NVM bank read (queueing + service)
    NvmWrite,     ///< NVM bank write (queueing + service)
    NumStages
};

/** Viewer name of a stage ("wpqInsert", "masuBmt", ...). */
const char *stageName(Stage s);

/** Viewer category of a stage ("core", "wpq", "misu", "masu", "nvm"). */
const char *stageCategory(Stage s);

/** Viewer lane (Chrome tid) a stage renders in. */
unsigned stageLane(Stage s);

/** One recorded event. */
struct Event
{
    Tick start = 0;
    Tick end = 0;
    Addr addr = 0;
    std::uint64_t id = 0;
    Stage stage = Stage::CoreClwb;
};

/**
 * The process-wide ring-buffered tracer.
 */
class Tracer
{
  public:
    /** The global instance every instrumentation site records into. */
    static Tracer &instance();

    /** Start recording; the ring holds @p capacity events. */
    void enable(std::size_t capacity = defaultCapacity);

    /** Stop recording (the buffer is kept until clear()). */
    void disable() { active_ = false; }

    /** Recording enabled? (The DOLOS_TRACE fast-path check.) */
    bool active() const { return active_; }

    /** Record one event (call through DOLOS_TRACE, not directly). */
    void
    record(Stage stage, Tick start, Tick end, Addr addr = 0,
           std::uint64_t id = 0)
    {
        if (ring.empty())
            return;
        ring[head] = {start, end, addr, id, stage};
        head = (head + 1) % ring.size();
        if (count < ring.size())
            ++count;
        else
            ++dropped_;
    }

    /** Events currently buffered. */
    std::size_t size() const { return count; }

    /** Events overwritten after the ring filled. */
    std::uint64_t dropped() const { return dropped_; }

    /** Drop all buffered events (recording state is unchanged). */
    void clear();

    /**
     * Emit the buffered events, oldest first, as a Chrome
     * trace_event JSON array of complete ("ph":"X") events preceded
     * by lane-naming metadata.
     */
    void dump(std::ostream &os) const;

    /** Visit buffered events oldest-first (tests, custom sinks). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t cap = ring.size();
        const std::size_t first = (head + cap - count) % (cap ? cap : 1);
        for (std::size_t i = 0; i < count; ++i)
            fn(ring[(first + i) % cap]);
    }

    static constexpr std::size_t defaultCapacity = 1u << 20;

  private:
    std::vector<Event> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    std::uint64_t dropped_ = 0;
    bool active_ = false;
};

} // namespace dolos::trace

#if DOLOS_TRACING
#define DOLOS_TRACE(stage, start, end, addr, id)                       \
    do {                                                               \
        auto &dolos_tr_ = ::dolos::trace::Tracer::instance();          \
        if (dolos_tr_.active()) [[unlikely]]                           \
            dolos_tr_.record((stage), (start), (end), (addr), (id));   \
    } while (0)
#else
// Mention the arguments inside an unevaluated sizeof so locals that
// exist only to feed a trace site do not trip -Wunused-variable in a
// -DDOLOS_TRACING=OFF build, while still evaluating nothing (the
// zero-overhead invariant).
#define DOLOS_TRACE(stage, start, end, addr, id)                       \
    ((void)sizeof((stage), (start), (end), (addr), (id)), (void)0)
#endif

#endif // DOLOS_SIM_TRACE_HH
