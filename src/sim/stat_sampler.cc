/**
 * @file
 * Interval statistics sampler implementation.
 */

#include "sim/stat_sampler.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dolos::stats
{

namespace
{

/** Shortest round-trippable representation of a double. */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.15g", v);
    if (std::strtod(shorter, nullptr) == v)
        return shorter;
    return buf;
}

} // namespace

StatSampler::StatSampler(Tick interval) : interval_(interval)
{
    DOLOS_ASSERT(interval > 0, "sample interval must be positive");
}

void
StatSampler::addGroup(const StatGroup *root)
{
    DOLOS_ASSERT(!active_, "addGroup after begin()");
    roots.push_back(root);
}

void
StatSampler::begin(Tick now)
{
    DOLOS_ASSERT(!active_, "StatSampler::begin called twice");
    scalarCols.clear();
    avgCols.clear();
    histCols.clear();
    starts_.clear();
    ends_.clear();
    for (const StatGroup *root : roots) {
        root->forEachScalar([this](const std::string &path, Scalar *s) {
            scalarCols.push_back({path, s, s->value(), {}});
        });
        root->forEachAverage([this](const std::string &path, Average *a) {
            avgCols.push_back(
                {path, a, a->total(), a->samples(), {}, {}});
        });
        root->forEachHistogram(
            [this](const std::string &path, Histogram *h) {
                // Discard any window residue from before begin().
                h->takeWindow();
                histCols.push_back({path, h, {}});
            });
    }
    // Column order is part of the artifact: sort by path so two runs
    // (or two builds that register groups in a different order)
    // stay byte-diffable.
    const auto byPath = [](const auto &a, const auto &b) {
        return a.path < b.path;
    };
    std::sort(scalarCols.begin(), scalarCols.end(), byPath);
    std::sort(avgCols.begin(), avgCols.end(), byPath);
    std::sort(histCols.begin(), histCols.end(), byPath);

    lastClose_ = now;
    next_ = (now / interval_ + 1) * interval_;
    active_ = true;
}

void
StatSampler::closeWindow(Tick end)
{
    starts_.push_back(lastClose_);
    ends_.push_back(end);
    for (auto &c : scalarCols) {
        const std::uint64_t v = c.stat->value();
        c.deltas.push_back(v - c.last);
        c.last = v;
    }
    for (auto &c : avgCols) {
        const double sum = c.stat->total();
        const std::uint64_t n = c.stat->samples();
        c.sums.push_back(sum - c.lastSum);
        c.counts.push_back(n - c.lastN);
        c.lastSum = sum;
        c.lastN = n;
    }
    for (auto &c : histCols)
        c.windows.push_back(c.stat->takeWindow());
    lastClose_ = end;
}

void
StatSampler::closeWindowsTo(Tick now)
{
    // One window per crossing, ending at the largest boundary at or
    // below now: a clock jump over many intervals yields one long
    // window (a whole multiple of the interval), never a flood of
    // empty ones. Deltas still reconcile exactly.
    const Tick boundary = (now / interval_) * interval_;
    if (boundary <= lastClose_)
        return;
    closeWindow(boundary);
    next_ = boundary + interval_;
}

void
StatSampler::finish(Tick now)
{
    if (!active_)
        return;
    closeWindowsTo(now);
    if (now > lastClose_)
        closeWindow(now); // trailing partial window
    active_ = false;
}

std::vector<std::pair<std::string, std::vector<double>>>
StatSampler::derivedSeries() const
{
    std::vector<std::pair<std::string, std::vector<double>>> out;
    const std::size_t nw = starts_.size();

    auto windowLen = [this](std::size_t w) {
        return double(ends_[w] - starts_[w]);
    };
    auto findScalar = [this](const char *path) -> const ScalarColumn * {
        for (const auto &c : scalarCols)
            if (c.path == path)
                return &c;
        return nullptr;
    };

    for (const auto &c : avgCols) {
        if (c.path != "mc.drainLatency")
            continue;
        std::vector<double> series(nw, 0.0);
        for (std::size_t w = 0; w < nw; ++w)
            series[w] = double(c.counts[w]) / (windowLen(w) / 1000.0);
        out.emplace_back("drainsPerKcycle", std::move(series));
    }
    if (const auto *stall = findScalar("mc.wpqStallCycles")) {
        std::vector<double> series(nw, 0.0);
        for (std::size_t w = 0; w < nw; ++w)
            series[w] = double(stall->deltas[w]) / windowLen(w);
        out.emplace_back("wpqStallFraction", std::move(series));
    }
    return out;
}

void
StatSampler::dumpJson(std::ostream &os) const
{
    os << "{\"timeline\":{\"interval\":" << interval_;
    os << ",\"windows\":[";
    for (std::size_t w = 0; w < starts_.size(); ++w)
        os << (w ? "," : "") << "{\"start\":" << starts_[w]
           << ",\"end\":" << ends_[w] << "}";
    os << "]";

    os << ",\"scalars\":{";
    bool first = true;
    for (const auto &c : scalarCols) {
        os << (first ? "" : ",") << "\"" << json::escape(c.path)
           << "\":[";
        for (std::size_t w = 0; w < c.deltas.size(); ++w)
            os << (w ? "," : "") << c.deltas[w];
        os << "]";
        first = false;
    }
    os << "}";

    os << ",\"averages\":{";
    first = true;
    for (const auto &c : avgCols) {
        os << (first ? "" : ",") << "\"" << json::escape(c.path)
           << "\":{\"sums\":[";
        for (std::size_t w = 0; w < c.sums.size(); ++w)
            os << (w ? "," : "") << num(c.sums[w]);
        os << "],\"counts\":[";
        for (std::size_t w = 0; w < c.counts.size(); ++w)
            os << (w ? "," : "") << c.counts[w];
        os << "]}";
        first = false;
    }
    os << "}";

    os << ",\"histograms\":{";
    first = true;
    for (const auto &c : histCols) {
        os << (first ? "" : ",") << "\"" << json::escape(c.path)
           << "\":{\"samples\":[";
        for (std::size_t w = 0; w < c.windows.size(); ++w)
            os << (w ? "," : "") << c.windows[w].samples;
        os << "],\"means\":[";
        for (std::size_t w = 0; w < c.windows.size(); ++w)
            os << (w ? "," : "") << num(c.windows[w].mean());
        os << "],\"mins\":[";
        for (std::size_t w = 0; w < c.windows.size(); ++w)
            os << (w ? "," : "")
               << num(c.windows[w].samples ? c.windows[w].min : 0.0);
        os << "],\"maxs\":[";
        for (std::size_t w = 0; w < c.windows.size(); ++w)
            os << (w ? "," : "")
               << num(c.windows[w].samples ? c.windows[w].max : 0.0);
        os << "]}";
        first = false;
    }
    os << "}";

    os << ",\"derived\":{";
    first = true;
    for (const auto &[name, series] : derivedSeries()) {
        os << (first ? "" : ",") << "\"" << json::escape(name)
           << "\":[";
        for (std::size_t w = 0; w < series.size(); ++w)
            os << (w ? "," : "") << num(series[w]);
        os << "]";
        first = false;
    }
    os << "}}}\n";
}

void
StatSampler::dumpCsv(std::ostream &os) const
{
    const auto derived = derivedSeries();
    os << "start,end";
    for (const auto &c : scalarCols)
        os << "," << c.path;
    for (const auto &c : avgCols)
        os << "," << c.path << ".sum," << c.path << ".count";
    for (const auto &c : histCols)
        os << "," << c.path << ".samples," << c.path << ".mean,"
           << c.path << ".min," << c.path << ".max";
    for (const auto &[name, series] : derived)
        os << ",derived." << name;
    os << "\n";
    for (std::size_t w = 0; w < starts_.size(); ++w) {
        os << starts_[w] << "," << ends_[w];
        for (const auto &c : scalarCols)
            os << "," << c.deltas[w];
        for (const auto &c : avgCols)
            os << "," << num(c.sums[w]) << "," << c.counts[w];
        for (const auto &c : histCols)
            os << "," << c.windows[w].samples << ","
               << num(c.windows[w].mean()) << ","
               << num(c.windows[w].samples ? c.windows[w].min : 0.0)
               << ","
               << num(c.windows[w].samples ? c.windows[w].max : 0.0);
        for (const auto &[name, series] : derived)
            os << "," << num(series[w]);
        os << "\n";
    }
}

} // namespace dolos::stats
