/**
 * @file
 * Campaign heartbeat implementation.
 */

#include "sim/heartbeat.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "sim/json.hh"

namespace dolos
{

namespace
{

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Two-decimal fixed format: rates and ETAs, not measurements. */
std::string
rate(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

} // namespace

CampaignMonitor::CampaignMonitor(std::string campaign,
                                 std::uint64_t total,
                                 std::uint64_t every, std::FILE *sink)
    : campaign_(std::move(campaign)), total_(total), every_(every),
      sink_(sink), startNanos_(nowNanos())
{}

double
CampaignMonitor::elapsedSec() const
{
    return double(nowNanos() - startNanos_) * 1e-9;
}

std::string
CampaignMonitor::record(const char *type, bool withEta,
                        bool withSeed) const
{
    const double elapsed = elapsedSec();
    const double perSec = elapsed > 0 ? double(done_) / elapsed : 0;
    std::ostringstream os;
    os << "{\"type\":\"" << type << "\",\"campaign\":\""
       << json::escape(campaign_) << "\",\"done\":" << done_
       << ",\"total\":" << total_ << ",\"failures\":" << failures_
       << ",\"casesPerSec\":" << rate(perSec)
       << ",\"elapsedSec\":" << rate(elapsed);
    if (withEta && total_ > done_ && perSec > 0)
        os << ",\"etaSec\":" << rate(double(total_ - done_) / perSec);
    if (withSeed)
        os << ",\"seed\":" << lastSeed_;
    if (!withEta && !withSeed) {
        os << ",\"failedSeeds\":[";
        for (std::size_t i = 0; i < failedSeeds_.size(); ++i)
            os << (i ? "," : "") << failedSeeds_[i];
        os << "]";
    }
    os << "}";
    return os.str();
}

void
CampaignMonitor::emit(const std::string &line)
{
    if (!sink_)
        return;
    std::fputs(line.c_str(), sink_);
    std::fputc('\n', sink_);
    std::fflush(sink_);
}

void
CampaignMonitor::caseDone(std::uint64_t seed, bool failed)
{
    const std::lock_guard<std::mutex> g(mu_);
    ++done_;
    lastSeed_ = seed;
    if (failed) {
        ++failures_;
        // Keep the lowest failing seeds, not the first to finish:
        // parallel workers complete out of order, and the summary
        // must not depend on scheduling.
        const auto pos = std::lower_bound(failedSeeds_.begin(),
                                          failedSeeds_.end(), seed);
        failedSeeds_.insert(pos, seed);
        if (failedSeeds_.size() > maxFailedSeeds)
            failedSeeds_.pop_back();
    }
    if (every_ && ++sinceBeat_ >= every_) {
        sinceBeat_ = 0;
        emit(record("heartbeat", true, true));
    }
}

void
CampaignMonitor::finish()
{
    const std::lock_guard<std::mutex> g(mu_);
    emit(record("summary", false, false));
}

std::string
CampaignMonitor::summary() const
{
    const std::lock_guard<std::mutex> g(mu_);
    return record("summary", false, false);
}

bool
writeRecord(const std::string &path, const std::string &record)
{
    std::ofstream out(path);
    out << record << "\n";
    return bool(out);
}

} // namespace dolos
