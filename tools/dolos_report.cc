/**
 * @file
 * dolos_report — validate and diff the simulator's JSON artifacts.
 *
 * Two modes:
 *
 *   dolos_report --check FILE
 *       Parse FILE (a --stats-json / --trace / BENCH_*.json artifact)
 *       and exit 0 if it is well-formed JSON, 2 otherwise.
 *
 *   dolos_report BASELINE CANDIDATE [--threshold PCT]
 *       Compare every numeric leaf shared by the two documents and
 *       flag regressions: metrics whose name suggests "higher is
 *       worse" (cycles, latency, stalls, retries, misses, ...) that
 *       grew by more than the threshold, and "higher is better"
 *       metrics (speedup, hits) that shrank by more than it. Exits 1
 *       if any regression was found, 0 otherwise.
 *
 *   dolos_report --diff BASELINE CANDIDATE
 *       Print the per-stage stall-cycle delta table (wpqStall / bmt /
 *       mac / aes / ...) between two --stats-json dumps. Exits 0 on
 *       readable input with comparable stages, 2 when a stage appears
 *       in exactly one document (a one-sided artifact is a config
 *       mismatch, not a zero); the bench gates print it so a
 *       threshold failure comes with the stage that moved.
 *
 *   dolos_report --timeline FILE [FILE2]
 *       Render a --stats-timeline JSON artifact: one ASCII sparkline
 *       per derived series plus the busiest scalar counters. With a
 *       second file, print a window-aligned delta table of the shared
 *       series instead (totals, diff, and the max-divergence window).
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/json.hh"

namespace
{

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: dolos_report --check FILE\n"
        "       dolos_report BASELINE CANDIDATE [--threshold PCT]\n"
        "       dolos_report --diff BASELINE CANDIDATE\n"
        "       dolos_report --timeline FILE [FILE2]\n"
        "  --check FILE      validate a JSON artifact (exit 0/2)\n"
        "  --threshold PCT   regression threshold in percent "
        "(default 5)\n"
        "  --diff            per-stage stall-cycle delta table "
        "between two --stats-json dumps\n"
        "  --timeline        sparklines for a --stats-timeline "
        "artifact; with two files, a window-aligned delta table\n");
    std::exit(code);
}

/** Parse a --threshold percentage: the whole token is a number. */
std::optional<double>
parsePercent(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    return text.empty() || *end ? std::nullopt : std::optional(v);
}

std::optional<dolos::json::Value>
load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "dolos_report: cannot read %s\n",
                     path.c_str());
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    auto v = dolos::json::parse(buf.str(), &error);
    if (!v)
        std::fprintf(stderr, "dolos_report: %s: %s\n", path.c_str(),
                     error.c_str());
    return v;
}

bool
containsWord(const std::string &path, const char *word)
{
    // Case-insensitive substring match on the leaf path.
    std::string lower;
    lower.reserve(path.size());
    for (char c : path)
        lower += char(std::tolower(static_cast<unsigned char>(c)));
    return lower.find(word) != std::string::npos;
}

/**
 * Direction heuristic: +1 means larger values are worse (latency,
 * stalls), -1 means larger values are better (speedup, hits, rates),
 * 0 means neutral (counts we cannot judge — reported but never
 * flagged). Rates are matched first: "simCyclesPerSec" names cycles,
 * but more of them per second is better. A --stats-json "host"
 * object is one run's wall-clock, which differs run to run, so it
 * is neutral; perfbench is where host speed is measured and gated.
 */
int
direction(const std::string &path)
{
    if (path.rfind("host.", 0) == 0)
        return 0;
    static const char *worse[] = {"cycle",   "latency", "stall",
                                  "retries", "cpi",     "queueing",
                                  "miss",    "dropped", "conflict"};
    static const char *better[] = {"speedup", "hit"};
    if (containsWord(path, "persec"))
        return -1;
    for (const char *w : worse)
        if (containsWord(path, w))
            return 1;
    for (const char *w : better)
        if (containsWord(path, w))
            return -1;
    return 0;
}

/**
 * Sum every numeric leaf whose path's final segment equals @p name
 * (e.g. "stats.breakdown.bmtCycles" for "bmtCycles"). A --stats-json
 * dump has one such leaf per stage; a BENCH artifact may carry one
 * per (mode, leg) series — the sum is the document's total spend in
 * that stage either way. Returns the number of leaves summed.
 */
std::size_t
sumLeavesNamed(
    const std::vector<std::pair<std::string, double>> &leaves,
    const std::string &name, double &total)
{
    std::size_t n = 0;
    total = 0.0;
    for (const auto &[path, v] : leaves) {
        const auto pos = path.rfind('.');
        const std::string tail =
            pos == std::string::npos ? path : path.substr(pos + 1);
        if (tail == name) {
            total += v;
            ++n;
        }
    }
    return n;
}

/**
 * --diff: the persist-path stage breakdown, baseline vs candidate.
 * Rows are the per-stage cycle accounts a --stats-json dump carries;
 * stall stages sum into a combined "stall total" row so a bench-gate
 * failure shows which stage moved.
 */
int
diffStages(const dolos::json::Value &base,
           const dolos::json::Value &cand)
{
    static const char *stages[] = {
        "wpqStallCycles", "bmtCycles",      "macCycles",
        "aesCycles",      "misuMacCycles",  "ctrFetchCycles",
        "fenceStallCycles"};
    const auto baseLeaves = dolos::json::numericLeaves(base);
    const auto candLeaves = dolos::json::numericLeaves(cand);

    std::printf("%-18s %14s %14s %14s %8s\n", "stage", "baseline",
                "candidate", "delta", "pct");
    double baseTotal = 0, candTotal = 0;
    std::size_t rows = 0;
    for (const char *stage : stages) {
        double bv = 0, cv = 0;
        const std::size_t bn = sumLeavesNamed(baseLeaves, stage, bv);
        const std::size_t cn = sumLeavesNamed(candLeaves, stage, cv);
        if (!bn && !cn)
            continue; // stage absent from both: not part of this config
        if (!bn || !cn) {
            // One-sided stage: the artifacts came from different
            // configs/builds, so a delta would silently compare a
            // real count against a fabricated zero.
            std::fprintf(stderr,
                         "dolos_report: stat '%s' present only in %s "
                         "— artifacts are not comparable\n",
                         stage, bn ? "the baseline" : "the candidate");
            return 2;
        }
        ++rows;
        baseTotal += bv;
        candTotal += cv;
        const double delta = cv - bv;
        const double pct = bv != 0.0  ? delta / bv * 100.0
                           : delta > 0 ? 100.0
                           : delta < 0 ? -100.0
                                       : 0.0;
        std::printf("%-18s %14.0f %14.0f %+14.0f %+7.1f%%\n", stage,
                    bv, cv, delta, pct);
    }
    if (rows == 0) {
        std::fprintf(stderr,
                     "dolos_report: no shared stage-cycle leaves — "
                     "are these --stats-json dumps?\n");
        return 2;
    }
    const double delta = candTotal - baseTotal;
    std::printf("%-18s %14.0f %14.0f %+14.0f %+7.1f%%\n",
                "stall total", baseTotal, candTotal, delta,
                baseTotal != 0.0 ? delta / baseTotal * 100.0 : 0.0);
    double bruns = 0, cruns = 0;
    const std::size_t brn =
        sumLeavesNamed(baseLeaves, "runCycles", bruns);
    const std::size_t crn =
        sumLeavesNamed(candLeaves, "runCycles", cruns);
    if (brn && crn) {
        const double d = cruns - bruns;
        std::printf("%-18s %14.0f %14.0f %+14.0f %+7.1f%%\n",
                    "runCycles", bruns, cruns, d,
                    bruns != 0.0 ? d / bruns * 100.0 : 0.0);
    } else if (brn || crn) {
        std::fprintf(stderr,
                     "dolos_report: stat 'runCycles' present only in "
                     "%s — artifacts are not comparable\n",
                     brn ? "the baseline" : "the candidate");
        return 2;
    }
    return 0;
}

/** One named per-window series pulled out of a timeline artifact. */
struct Series
{
    std::string name;
    std::vector<double> v;

    double
    total() const
    {
        double t = 0;
        for (double x : v)
            t += x;
        return t;
    }
};

/** Parsed --stats-timeline artifact: window spans plus the series. */
struct Timeline
{
    double interval = 0;
    std::vector<std::pair<double, double>> spans; ///< [start, end)
    std::vector<Series> derived;                  ///< rates etc.
    std::vector<Series> scalars;                  ///< counter deltas
};

void
readSeriesObject(const dolos::json::Value &obj,
                 std::vector<Series> &out)
{
    for (const auto &[name, val] : obj.members()) {
        if (!val.isArray())
            continue;
        Series s;
        s.name = name;
        for (const auto &e : val.array())
            if (e.isNumber())
                s.v.push_back(e.number());
        out.push_back(std::move(s));
    }
}

std::optional<Timeline>
loadTimeline(const dolos::json::Value &root, const std::string &path)
{
    const auto *tl = root.find("timeline");
    if (!tl || !tl->isObject()) {
        std::fprintf(stderr,
                     "dolos_report: %s has no \"timeline\" object — "
                     "is this a --stats-timeline artifact?\n",
                     path.c_str());
        return std::nullopt;
    }
    Timeline out;
    if (const auto *iv = tl->find("interval"); iv && iv->isNumber())
        out.interval = iv->number();
    if (const auto *w = tl->find("windows"); w && w->isArray()) {
        for (const auto &win : w->array()) {
            const auto *s = win.find("start");
            const auto *e = win.find("end");
            out.spans.emplace_back(s && s->isNumber() ? s->number() : 0,
                                   e && e->isNumber() ? e->number() : 0);
        }
    }
    if (const auto *d = tl->find("derived"); d && d->isObject())
        readSeriesObject(*d, out.derived);
    if (const auto *s = tl->find("scalars"); s && s->isObject())
        readSeriesObject(*s, out.scalars);
    return out;
}

/**
 * Render a series as one character per window, amplitude-binned into
 * ten levels against the series' own maximum (an all-zero series is a
 * flat line of spaces).
 */
std::string
sparkline(const std::vector<double> &v)
{
    static const char levels[] = " .:-=+*#%@";
    constexpr int top = int(sizeof(levels)) - 2; // drop the NUL
    double max = 0;
    for (double x : v)
        max = std::max(max, x);
    std::string out;
    out.reserve(v.size());
    for (double x : v) {
        int lvl = 0;
        if (max > 0 && x > 0)
            lvl = std::max(1, int(x / max * top + 0.5));
        out += levels[std::min(lvl, top)];
    }
    return out;
}

/** Single-file --timeline: sparkline per derived series, then the
 *  busiest counters (largest summed per-window delta). */
int
showTimeline(const Timeline &tl)
{
    std::printf("timeline: %zu windows x %.0f cycles\n",
                tl.spans.size(), tl.interval);
    if (tl.spans.empty()) {
        std::fprintf(stderr, "dolos_report: timeline has no windows\n");
        return 2;
    }
    auto row = [&](const Series &s) {
        double max = 0;
        std::size_t argmax = 0;
        for (std::size_t i = 0; i < s.v.size(); ++i)
            if (s.v[i] > max) {
                max = s.v[i];
                argmax = i;
            }
        std::printf("  %-28s |%s|  total %.6g, peak %.6g @ w%zu\n",
                    s.name.c_str(), sparkline(s.v).c_str(), s.total(),
                    max, argmax);
    };
    for (const auto &s : tl.derived)
        row(s);
    std::vector<const Series *> busiest;
    for (const auto &s : tl.scalars)
        busiest.push_back(&s);
    std::stable_sort(busiest.begin(), busiest.end(),
                     [](const Series *a, const Series *b) {
                         return a->total() > b->total();
                     });
    if (busiest.size() > 8)
        busiest.resize(8);
    if (!busiest.empty())
        std::printf("  busiest counters:\n");
    for (const Series *s : busiest)
        row(*s);
    return 0;
}

/**
 * Two-file --timeline: window-aligned delta table over the series
 * both artifacts carry, largest absolute total change first, with the
 * window where the runs diverge the most.
 */
int
compareTimelines(const Timeline &base, const Timeline &cand)
{
    if (base.interval != cand.interval)
        std::fprintf(stderr,
                     "dolos_report: warning: sample intervals differ "
                     "(%.0f vs %.0f) — windows are not aligned\n",
                     base.interval, cand.interval);
    struct Row
    {
        std::string name;
        double bt = 0, ct = 0;
        double worst = 0; ///< largest per-window |delta|
        std::size_t worstWin = 0;
    };
    std::vector<Row> rows;
    auto collect = [&](const std::vector<Series> &bs,
                       const std::vector<Series> &cs) {
        for (const auto &b : bs) {
            const Series *c = nullptr;
            for (const auto &s : cs)
                if (s.name == b.name) {
                    c = &s;
                    break;
                }
            if (!c)
                continue;
            Row r;
            r.name = b.name;
            r.bt = b.total();
            r.ct = c->total();
            const std::size_t n = std::min(b.v.size(), c->v.size());
            for (std::size_t i = 0; i < n; ++i) {
                const double d = std::abs(c->v[i] - b.v[i]);
                if (d > r.worst) {
                    r.worst = d;
                    r.worstWin = i;
                }
            }
            rows.push_back(std::move(r));
        }
    };
    collect(base.derived, cand.derived);
    collect(base.scalars, cand.scalars);
    if (rows.empty()) {
        std::fprintf(stderr,
                     "dolos_report: the two timelines share no "
                     "series\n");
        return 2;
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         return std::abs(a.ct - a.bt) >
                                std::abs(b.ct - b.bt);
                     });
    if (rows.size() > 12)
        rows.resize(12);
    std::printf("%-28s %14s %14s %14s %8s %12s\n", "series",
                "baseline", "candidate", "delta", "pct", "worst win");
    for (const auto &r : rows) {
        const double d = r.ct - r.bt;
        const double pct = r.bt != 0.0 ? d / std::abs(r.bt) * 100.0
                           : d > 0     ? 100.0
                           : d < 0     ? -100.0
                                       : 0.0;
        char win[32];
        std::snprintf(win, sizeof(win), "w%zu (%.4g)", r.worstWin,
                      r.worst);
        std::printf("%-28s %14.6g %14.6g %+14.6g %+7.1f%% %12s\n",
                    r.name.c_str(), r.bt, r.ct, d, pct, win);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    std::string checkFile;
    bool diff = false;
    bool timeline = false;
    double threshold = 5.0;

    dolos::CliReader r(argc, argv, 1, usage);
    while (r.next()) {
        if (r.is("--check"))
            checkFile = r.value();
        else if (r.is("--diff"))
            diff = true;
        else if (r.is("--timeline"))
            timeline = true;
        else if (r.is("--threshold"))
            threshold = r.parsed(parsePercent, "bad threshold");
        else if (!r.arg().empty() && r.arg()[0] == '-')
            r.unknown();
        else
            positional.push_back(r.arg());
    }

    if (!checkFile.empty()) {
        if (!positional.empty())
            usage(1);
        auto v = load(checkFile);
        if (!v)
            return 2;
        std::printf("%s: valid JSON (%zu numeric leaves)\n",
                    checkFile.c_str(),
                    dolos::json::numericLeaves(*v).size());
        return 0;
    }

    if (timeline) {
        if (diff || positional.empty() || positional.size() > 2)
            usage(1);
        auto baseDoc = load(positional[0]);
        if (!baseDoc)
            return 2;
        auto baseTl = loadTimeline(*baseDoc, positional[0]);
        if (!baseTl)
            return 2;
        if (positional.size() == 1)
            return showTimeline(*baseTl);
        auto candDoc = load(positional[1]);
        if (!candDoc)
            return 2;
        auto candTl = loadTimeline(*candDoc, positional[1]);
        if (!candTl)
            return 2;
        return compareTimelines(*baseTl, *candTl);
    }

    if (positional.size() != 2)
        usage(1);

    auto base = load(positional[0]);
    auto cand = load(positional[1]);
    if (!base || !cand)
        return 2;

    if (diff)
        return diffStages(*base, *cand);

    const auto baseLeaves = dolos::json::numericLeaves(*base);
    const auto candLeaves = dolos::json::numericLeaves(*cand);
    std::size_t compared = 0;
    std::size_t regressions = 0;

    for (const auto &[path, bv] : baseLeaves) {
        const double *cv = nullptr;
        for (const auto &[cpath, val] : candLeaves) {
            if (cpath == path) {
                cv = &val;
                break;
            }
        }
        if (!cv)
            continue;
        ++compared;
        const int dir = direction(path);
        if (dir == 0 || bv == *cv)
            continue;
        const double deltaPct =
            bv != 0.0 ? (*cv - bv) / std::abs(bv) * 100.0
                      : (*cv > 0 ? 100.0 : -100.0);
        const bool isRegression = dir > 0 ? deltaPct > threshold
                                          : deltaPct < -threshold;
        if (isRegression) {
            ++regressions;
            std::printf("REGRESSION %-50s %14.2f -> %14.2f  (%+.1f%%)\n",
                        path.c_str(), bv, *cv, deltaPct);
        } else if (std::abs(deltaPct) > threshold) {
            std::printf("improved   %-50s %14.2f -> %14.2f  (%+.1f%%)\n",
                        path.c_str(), bv, *cv, deltaPct);
        }
    }

    std::printf("%zu shared numeric leaves compared, %zu regression%s "
                "(threshold %.1f%%)\n",
                compared, regressions, regressions == 1 ? "" : "s",
                threshold);
    return regressions ? 1 : 0;
}
