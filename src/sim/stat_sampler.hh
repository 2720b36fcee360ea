/**
 * @file
 * Interval statistics sampler: a windowed timeline of the stat tree.
 *
 * End-of-run stats answer "how much in total"; the sampler answers
 * "when". It snapshots every registered StatGroup each time the
 * simulated clock crosses an N-cycle boundary and records, per
 * window: the delta of every scalar counter, the sum/count of every
 * Average, and the window-local min/max/mean of every Histogram,
 * plus derived persist-path rates (drains per kilocycle, WPQ-stall
 * fraction) so drain behavior and WPQ pressure are visible as
 * curves.
 *
 * The sampler is host-side only: poll() reads stat values and never
 * advances or depends on simulated time, so an attached sampler
 * changes no measured metric (tests/unit/stat_timeline_test.cc
 * proves final stats are bit-identical with sampling on vs off).
 *
 * The core's clock advances in jumps (a fence stall can cross many
 * intervals at once), so windows are closed at the *largest* interval
 * boundary at or below the polled tick: every window spans one or
 * more whole intervals, windows carry their actual [start, end)
 * bounds, and per-window deltas always sum exactly to the
 * end-of-run totals. finish() closes the trailing partial window.
 *
 * dumpJson()/dumpCsv() emit the timeline column-major / row-major;
 * columns are sorted by dotted stat path, so the artifacts are
 * byte-diffable across runs. tools/dolos_report --timeline renders
 * and diffs them (see docs/observability.md).
 */

#ifndef DOLOS_SIM_STAT_SAMPLER_HH
#define DOLOS_SIM_STAT_SAMPLER_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace dolos::stats
{

/** Windowed timeline sampler over registered StatGroup trees. */
class StatSampler
{
  public:
    /** @param interval Window length in simulated cycles (> 0). */
    explicit StatSampler(Tick interval);

    /** Register a root group to sample. Call before begin(). */
    void addGroup(const StatGroup *root);

    /**
     * Flatten the registered groups into columns, snapshot their
     * current values as the baseline, and open the first window at
     * @p now. Stats registered after begin() are not sampled.
     */
    void begin(Tick now);

    /**
     * Close windows if @p now reached the next interval boundary.
     * Cheap when it has not (one compare); hook this into the
     * clock-advancing operations of whatever owns simulated time.
     */
    void
    poll(Tick now)
    {
        if (!active_ || now < next_)
            return;
        closeWindowsTo(now);
    }

    /** Close the trailing partial window (if any) and stop. */
    void finish(Tick now);

    Tick interval() const { return interval_; }
    bool active() const { return active_; }
    std::size_t windowCount() const { return starts_.size(); }

    /** One column per stat; per-window series index-aligned with
     *  windowStarts()/windowEnds(). */
    struct ScalarColumn
    {
        std::string path;
        const Scalar *stat = nullptr;
        std::uint64_t last = 0; ///< value at the last window close
        std::vector<std::uint64_t> deltas;
    };

    struct AverageColumn
    {
        std::string path;
        const Average *stat = nullptr;
        double lastSum = 0;
        std::uint64_t lastN = 0;
        std::vector<double> sums;
        std::vector<std::uint64_t> counts;
    };

    struct HistColumn
    {
        std::string path;
        Histogram *stat = nullptr; ///< takeWindow() mutates host state
        std::vector<HistogramWindow> windows;
    };

    const std::vector<ScalarColumn> &scalarColumns() const
    {
        return scalarCols;
    }
    const std::vector<AverageColumn> &averageColumns() const
    {
        return avgCols;
    }
    const std::vector<HistColumn> &histColumns() const
    {
        return histCols;
    }
    const std::vector<Tick> &windowStarts() const { return starts_; }
    const std::vector<Tick> &windowEnds() const { return ends_; }

    /**
     * Derived per-window persist-path rates, computed from the
     * sampled columns when their source stats exist:
     *  - drainsPerKcycle: WPQ drains per 1000 cycles
     *    (mc.drainLatency sample count / window kilocycles)
     *  - wpqStallFraction: mc.wpqStallCycles delta / window cycles
     */
    std::vector<std::pair<std::string, std::vector<double>>>
    derivedSeries() const;

    /**
     * Emit the timeline as one JSON object:
     * {"timeline":{"interval":N,"windows":[{"start","end"},...],
     *  "scalars":{path:[delta,...]},
     *  "averages":{path:{"sums":[...],"counts":[...]}},
     *  "histograms":{path:{"samples":[...],"means":[...],
     *                      "mins":[...],"maxs":[...]}},
     *  "derived":{name:[...]}}}
     */
    void dumpJson(std::ostream &os) const;

    /** One row per window; header names every column. */
    void dumpCsv(std::ostream &os) const;

  private:
    void closeWindowsTo(Tick now);
    void closeWindow(Tick end);

    Tick interval_;
    Tick next_ = 0;       ///< next boundary that closes a window
    Tick lastClose_ = 0;  ///< end of the previously closed window
    bool active_ = false;
    std::vector<const StatGroup *> roots;
    std::vector<ScalarColumn> scalarCols;
    std::vector<AverageColumn> avgCols;
    std::vector<HistColumn> histCols;
    std::vector<Tick> starts_;
    std::vector<Tick> ends_;
};

} // namespace dolos::stats

#endif // DOLOS_SIM_STAT_SAMPLER_HH
