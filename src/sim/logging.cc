/**
 * @file
 * Implementation of error/status reporting and debug flags.
 */

#include "sim/logging.hh"

#include "sim/thread_annotations.hh"

#include <atomic>
#include <mutex>
#include <set>

namespace dolos
{

namespace
{

/** Serializes every access to the debug-flag set (see flagSet()). */
std::mutex &
flagsMutex()
{
    DOLOS_THREAD_SHARED(flagsMutex); // the lock itself is the lock
    static std::mutex mu;
    return mu;
}

std::set<std::string> &
rawFlagSet()
{
    DOLOS_THREAD_SHARED(flagsMutex);
    static std::set<std::string> flags;
    return flags;
}

/**
 * Size of the flag set, republished after every change under the
 * mutex, so debugPrintf can skip the lock and the string build when
 * no flag is enabled (the common case).
 */
std::atomic<std::size_t> &
enabledCount()
{
    DOLOS_THREAD_SHARED(atomics);
    static std::atomic<std::size_t> n{0};
    return n;
}

/** The flag set, with $DOLOS_DEBUG applied on first use. */
std::set<std::string> &
flagSet()
{
    static const bool env_applied = [] {
        DebugFlags::initFromEnvironment();
        return true;
    }();
    (void)env_applied;
    return rawFlagSet();
}

void
vreport(std::FILE *out, const char *prefix, const char *fmt, va_list ap)
{
    std::fprintf(out, "%s", prefix);
    std::vfprintf(out, fmt, ap);
    std::fprintf(out, "\n");
}

} // namespace

void
DebugFlags::enable(const std::string &flag)
{
    // Resolve flagSet() first: its magic-static env init calls
    // initFromEnvironment(), which takes the mutex itself.
    auto &set = flagSet();
    const std::lock_guard<std::mutex> g(flagsMutex());
    set.insert(flag);
    enabledCount().store(set.size());
}

void
DebugFlags::disable(const std::string &flag)
{
    auto &set = flagSet();
    const std::lock_guard<std::mutex> g(flagsMutex());
    set.erase(flag);
    enabledCount().store(set.size());
}

bool
DebugFlags::enabled(const std::string &flag)
{
    auto &set = flagSet();
    const std::lock_guard<std::mutex> g(flagsMutex());
    return set.count(flag) != 0;
}

void
DebugFlags::clear()
{
    auto &set = flagSet();
    const std::lock_guard<std::mutex> g(flagsMutex());
    set.clear();
    enabledCount().store(0);
}

void
DebugFlags::initFromEnvironment()
{
    const char *env = std::getenv("DOLOS_DEBUG");
    if (!env)
        return;
    const std::lock_guard<std::mutex> g(flagsMutex());
    std::string token;
    // Insert into the raw set: this runs during flagSet()'s first-use
    // initialization, and must not recurse into it.
    auto flush = [&token] {
        if (!token.empty())
            rawFlagSet().insert(token);
        token.clear();
    };
    for (const char *p = env; *p; ++p) {
        if (*p == ',' || *p == ' ' || *p == '\t')
            flush();
        else
            token.push_back(*p);
    }
    flush();
    enabledCount().store(rawFlagSet().size());
}

void
debugPrintf(const char *flag, const char *fmt, ...)
{
    // Fast path: flagSet() applies $DOLOS_DEBUG once, then an empty
    // set needs no lock and no std::string.
    (void)flagSet();
    if (enabledCount().load() == 0 || !DebugFlags::enabled(flag))
        return;
    std::fprintf(stdout, "[%s] ", flag);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stdout, fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "\n");
}

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport(stdout, "info: ", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport(stderr, "warn: ", fmt, ap);
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport(stderr, "fatal: ", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport(stderr, "panic: ", fmt, ap);
    va_end(ap);
    std::abort();
}

} // namespace dolos
