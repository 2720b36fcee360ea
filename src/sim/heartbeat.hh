/**
 * @file
 * Campaign heartbeats: structured progress for long-running drivers.
 *
 * dolos_torture campaigns and the crash-point sweep can run for
 * minutes to hours; until now they were silent until the final
 * verdict. A CampaignMonitor emits one NDJSON heartbeat record to its
 * sink (stderr by default, so stdout-parsing tests and pipelines are
 * unaffected) every N finished cases:
 *
 *   {"type":"heartbeat","campaign":"torture","done":40,"total":200,
 *    "failures":0,"casesPerSec":12.51,"etaSec":12.79,
 *    "elapsedSec":3.20,"seed":12345}
 *
 * and a final summary record (also NDJSON, same schema minus
 * eta/seed, plus the failing seeds, capped) from finish():
 *
 *   {"type":"summary","campaign":"torture","done":200,"total":200,
 *    "failures":1,"casesPerSec":12.48,"elapsedSec":16.03,
 *    "failedSeeds":[77]}
 *
 * writeRecord(path, summary()) additionally lands the summary record
 * in a file so CI can archive campaign outcomes without scraping logs.
 * The clock starts when the monitor is built. Timing uses
 * the host steady clock only — campaign pacing has no connection to
 * simulated time. See docs/observability.md.
 */

#ifndef DOLOS_SIM_HEARTBEAT_HH
#define DOLOS_SIM_HEARTBEAT_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace dolos
{

/**
 * Progress tracker + heartbeat emitter for one campaign.
 *
 * Thread-safe: parallel sweep workers (--jobs N) report finished
 * cases concurrently; an internal mutex serializes the counters and
 * the sink writes, and the summary's failedSeeds list is sorted so
 * worker completion order never leaks into the output.
 */
class CampaignMonitor
{
  public:
    /**
     * @param campaign Campaign name stamped into every record.
     * @param total Planned number of cases (0 = unknown; no ETA).
     * @param every Emit a heartbeat each @p every finished cases
     *              (0 disables heartbeats; summary still works).
     * @param sink Stream heartbeat/summary lines are written to.
     */
    CampaignMonitor(std::string campaign, std::uint64_t total,
                    std::uint64_t every, std::FILE *sink = stderr);

    /** Record one finished case; emits a heartbeat when due. */
    void caseDone(std::uint64_t seed, bool failed);

    /** Emit the summary record to the sink. */
    void finish();

    /** The summary record as of now (one NDJSON line, no newline). */
    std::string summary() const;

    std::uint64_t
    done() const
    {
        const std::lock_guard<std::mutex> g(mu_);
        return done_;
    }

    std::uint64_t
    failures() const
    {
        const std::lock_guard<std::mutex> g(mu_);
        return failures_;
    }

    /** Failing seeds kept for the summary (lowest maxFailedSeeds). */
    static constexpr std::size_t maxFailedSeeds = 32;

  private:
    double elapsedSec() const;
    /** Caller holds mu_. */
    std::string record(const char *type, bool withEta,
                       bool withSeed) const;
    /** Write one record line to the sink. Caller holds mu_. */
    void emit(const std::string &line);

    mutable std::mutex mu_;
    std::string campaign_;
    std::uint64_t total_;
    std::uint64_t every_;
    std::FILE *sink_;
    std::uint64_t startNanos_;
    std::uint64_t done_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t sinceBeat_ = 0;
    std::uint64_t lastSeed_ = 0;
    std::vector<std::uint64_t> failedSeeds_;
};

/** Write @p record plus a newline to @p path; false on I/O error. */
bool writeRecord(const std::string &path, const std::string &record);

} // namespace dolos

#endif // DOLOS_SIM_HEARTBEAT_HH
