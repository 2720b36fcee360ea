/**
 * @file
 * Host-side self-profiler implementation.
 */

#include "sim/profiler.hh"

#include <chrono>
#include <cstdio>
#include <iomanip>

#include "sim/json.hh"

namespace dolos::prof
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

/** Fixed-format seconds with enough digits for a profile table. */
std::string
secStr(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", s);
    return buf;
}

} // namespace

const char *
compName(Comp c)
{
    switch (c) {
      case Comp::Core: return "core";
      case Comp::CacheModel: return "cacheModel";
      case Comp::Controller: return "controller";
      case Comp::SecurityEngine: return "securityEngine";
      case Comp::Aes: return "aes";
      case Comp::Mac: return "mac";
      case Comp::Sha: return "sha";
      case Comp::CtrPad: return "ctrPad";
      case Comp::Nvm: return "nvm";
      case Comp::Verify: return "verify";
      case Comp::NumComps: break;
    }
    return "?";
}

Profiler &
Profiler::instance()
{
    // Per-thread accumulation: parallel sweep workers profile their
    // own System without contending; reports are per-thread too.
    static thread_local Profiler p;
    return p;
}

void
Profiler::enable()
{
    reset();
    lastStamp_ = nowNanos();
    active_ = true;
}

void
Profiler::disable()
{
    // Close out the span of whatever scope is open so time up to the
    // disable() call is attributed; the scopes themselves unwind as
    // no-ops once inactive (their pop() re-stamps harmlessly).
    if (active_ && depth_ > 0 && depth_ <= maxDepth) {
        const std::uint64_t now = nowNanos();
        nanos_[index(stack_[depth_ - 1])] += now - lastStamp_;
        lastStamp_ = now;
    }
    active_ = false;
}

void
Profiler::reset()
{
    nanos_.fill(0);
    calls_.fill(0);
    depth_ = 0;
    lastStamp_ = 0;
    active_ = false;
}

void
Profiler::push(Comp c)
{
    const std::uint64_t now = nowNanos();
    if (depth_ > 0 && depth_ <= maxDepth)
        nanos_[index(stack_[depth_ - 1])] += now - lastStamp_;
    if (depth_ < maxDepth)
        stack_[depth_] = c;
    ++depth_;
    ++calls_[index(c)];
    lastStamp_ = now;
}

void
Profiler::pop()
{
    if (depth_ == 0)
        return;
    const std::uint64_t now = nowNanos();
    if (depth_ <= maxDepth)
        nanos_[index(stack_[depth_ - 1])] += now - lastStamp_;
    --depth_;
    lastStamp_ = now;
}

std::uint64_t
Profiler::attributedNanos() const
{
    std::uint64_t total = 0;
    for (const auto n : nanos_)
        total += n;
    return total;
}

void
Profiler::report(std::ostream &os) const
{
    const double total = double(attributedNanos());
    os << "Self-profile (exclusive host time):\n";
    for (std::size_t i = 0; i < numComps; ++i) {
        if (!calls_[i])
            continue;
        const double sec = double(nanos_[i]) * 1e-9;
        const double share = total > 0 ? double(nanos_[i]) / total : 0;
        char pct[16];
        std::snprintf(pct, sizeof(pct), "%5.1f", share * 100);
        os << "  " << std::left << std::setw(16)
           << compName(static_cast<Comp>(i)) << std::right
           << std::setw(12) << secStr(sec) << " s  " << pct << "%  "
           << calls_[i] << " calls\n";
    }
}

void
Profiler::reportJson(std::ostream &os) const
{
    const double total = double(attributedNanos());
    os << "{\"attributedSec\":" << secStr(total * 1e-9)
       << ",\"components\":{";
    bool first = true;
    for (std::size_t i = 0; i < numComps; ++i) {
        if (!calls_[i])
            continue;
        os << (first ? "" : ",") << "\""
           << json::escape(compName(static_cast<Comp>(i)))
           << "\":{\"seconds\":" << secStr(double(nanos_[i]) * 1e-9)
           << ",\"share\":"
           << secStr(total > 0 ? double(nanos_[i]) / total : 0)
           << ",\"calls\":" << calls_[i] << "}";
        first = false;
    }
    os << "}}";
}

} // namespace dolos::prof
