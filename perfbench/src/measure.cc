/**
 * @file
 * Layer measurements: legs, crash points, crypto, spans, profiles.
 */

#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "crypto/aes128.hh"
#include "crypto/mac_engine.hh"
#include "workloads/runner.hh"

namespace perfbench
{

using namespace dolos;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

// --- Tracer -------------------------------------------------------------

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : t(tracer), armed(tracer.on)
{
    if (!armed)
        return;
    index = t.spans.size();
    t.spans.push_back({name, t.open.empty() ? 0 : t.open.back(), 0, 0});
    t.open.push_back(index + 1);
    start = Clock::now();
}

Tracer::Scope::~Scope()
{
    if (!armed)
        return;
    const auto end = Clock::now();
    t.open.pop_back();
    Span &s = t.spans[index];
    s.startUs =
        std::chrono::duration<double, std::micro>(start - t.origin).count();
    s.durUs = std::chrono::duration<double, std::micro>(end - start).count();
}

void
Tracer::enable()
{
    on = true;
    origin = Clock::now();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                      "\"parent\":%llu}}",
                      i ? ",\n" : "\n", s.name, s.startUs, s.durUs,
                      (unsigned long long)(i + 1),
                      (unsigned long long)s.parent);
        out << buf;
    }
    out << "\n]}\n";
    return bool(out);
}

// --- Self-profiler windows ---------------------------------------------

void
ProfileTotals::add(const ProfileTotals &o)
{
    for (std::size_t i = 0; i < numComps; ++i) {
        nanos[i] += o.nanos[i];
        calls[i] += o.calls[i];
    }
    wallNanos += o.wallNanos;
}

ProfileWindow::ProfileWindow(bool enable, ProfileTotals &totals)
    : on(enable), into(totals)
{
    if (on)
        prof::Profiler::instance().enable();
    start = Clock::now();
}

ProfileWindow::~ProfileWindow()
{
    if (!on)
        return;
    auto &p = prof::Profiler::instance();
    p.disable();
    into.wallNanos += secondsSince(start) * 1e9;
    for (std::size_t i = 0; i < ProfileTotals::numComps; ++i) {
        const auto c = static_cast<prof::Comp>(i);
        into.nanos[i] += double(p.exclusiveNanos(c));
        into.calls[i] += p.calls(c);
    }
    p.reset();
}

// --- Stat snapshots -----------------------------------------------------

double
StatDelta::count(const std::string &name) const
{
    const auto it = counts.find(name);
    if (it == counts.end())
        throw std::runtime_error("no stat named " + name);
    return it->second;
}

double
StatDelta::mean(const std::string &name) const
{
    const auto it = means.find(name);
    if (it == means.end())
        throw std::runtime_error("no average named " + name);
    return it->second;
}

StatSnapshot
StatSnapshot::take(System &sys)
{
    StatSnapshot s;
    stats::StatGroup *groups[] = {
        &sys.core().statGroup(), &sys.hierarchy().statGroup(),
        &sys.controller().statGroup(), &sys.engine().statGroup(),
        &sys.nvmDevice().statGroup()};
    for (auto *g : groups) {
        g->forEachScalar([&](const std::string &n, stats::Scalar *v) {
            s.scalars[n] = v->value();
        });
        g->forEachAverage([&](const std::string &n, stats::Average *a) {
            s.averages[n] = {a->total(), a->samples()};
        });
    }
    return s;
}

StatDelta
StatSnapshot::deltaTo(const StatSnapshot &later) const
{
    StatDelta d;
    for (const auto &[name, v] : later.scalars)
        d.counts[name] = double(v - scalars.at(name));
    for (const auto &[name, v] : later.averages) {
        const auto &[sum0, n0] = averages.at(name);
        const std::uint64_t n = v.second - n0;
        d.means[name] = n ? (v.first - sum0) / double(n) : 0.0;
    }
    return d;
}

// --- Legs ---------------------------------------------------------------

double
LegResult::cyclesPerTx() const
{
    return txCycles.empty() ? 0.0
                            : double(runCycles) / double(txCycles.size());
}

LegResult
runLeg(const LegSpec &leg, const std::string &workload,
       const workloads::WorkloadParams &params, std::uint64_t num_tx,
       Tracer &tracer, bool profile)
{
    Tracer::Scope legSpan(tracer, leg.name);
    LegResult r;
    auto t = Clock::now();
    std::unique_ptr<System> sys;
    {
        Tracer::Scope s(tracer, "System");
        sys = std::make_unique<System>(leg.config);
    }
    r.buildSec = secondsSince(t);

    auto wl = workloads::makeWorkload(workload, params);
    workloads::PmemEnv env(*sys);
    t = Clock::now();
    {
        Tracer::Scope s(tracer, "Workload::setup");
        wl->setup(env);
    }
    r.setupSec = secondsSince(t);

    SimpleCore &core = sys->core();
    const Tick c0 = core.now();
    const auto before = StatSnapshot::take(*sys);
    r.txCycles.reserve(num_tx);
    {
        ProfileWindow w(profile, r.profile);
        t = Clock::now();
        for (std::uint64_t i = 0; i < num_tx; ++i) {
            {
                Tracer::Scope s(tracer, "tx");
                const Tick c = core.now();
                wl->transaction(env, i);
                r.txCycles.push_back(core.now() - c);
            }
            if ((i + 1) % txChunk == 0 || i + 1 == num_tx) {
                const auto now = Clock::now();
                r.chunkSec.push_back(
                    std::chrono::duration<double>(now - t).count());
                t = now;
            }
        }
    }
    r.runCycles = core.now() - c0;
    r.stats = before.deltaTo(StatSnapshot::take(*sys));

    t = Clock::now();
    {
        Tracer::Scope s(tracer, "Workload::verify");
        r.verified = wl->verify(env, &r.diagnostic);
    }
    r.verifySec = secondsSince(t);
    r.attackDetected = sys->attackDetected();
    return r;
}

double
runnerCyclesPerTx(const LegSpec &leg, const std::string &workload,
                  const workloads::WorkloadParams &params,
                  std::uint64_t num_tx)
{
    System sys(leg.config);
    auto wl = workloads::makeWorkload(workload, params);
    return workloads::runWorkload(sys, *wl, num_tx).cyclesPerTx();
}

// --- Crash points -------------------------------------------------------

CrashResult
runCrashPoints(const verify::SweepOptions &opt, std::size_t budget,
               Tracer &tracer, bool profile)
{
    Tracer::Scope phase(tracer, "crash-points");
    CrashResult r;
    auto t = Clock::now();
    std::vector<std::uint64_t> all;
    {
        Tracer::Scope s(tracer, "enumerateCrashPoints");
        all = verify::enumerateCrashPoints(opt);
    }
    r.probeSec = secondsSince(t);
    r.candidates = all.size();

    std::vector<std::uint64_t> chosen;
    if (budget == 0 || budget >= all.size()) {
        chosen = all;
    } else {
        const std::size_t stride = all.size() / budget;
        const std::size_t offset = std::size_t(opt.sampleSeed % stride);
        for (std::size_t k = 0; k < budget; ++k)
            chosen.push_back(all[k * stride + offset]);
    }

    r.pointSec.reserve(chosen.size());
    {
        ProfileWindow w(profile, r.profile);
        for (const std::uint64_t point : chosen) {
            Tracer::Scope s(tracer, "runCrashPoint");
            const auto p0 = Clock::now();
            const auto res = verify::runCrashPoint(opt, point);
            r.pointSec.push_back(secondsSince(p0));
            if (!res.passed() && r.failures++ == 0)
                r.firstFailure = "point " + std::to_string(point) + " (" +
                                 res.microstep + "): " +
                                 res.oracle.summary();
        }
    }
    return r;
}

// --- Crypto -------------------------------------------------------------

namespace
{
/** Where the timed chains end up, so their loops cannot be elided. */
volatile std::uint8_t cryptoSink;
} // namespace

CryptoTiming
timeCrypto(const SecureParams &params)
{
    constexpr int batches = 7;
    constexpr int perBatch = 20000;
    const crypto::Aes128 aes(params.dataKey);
    const auto mac = crypto::makeMacEngine(params.macKind, params.macKey);

    // Each input depends on the previous output, so no call can be
    // skipped or hoisted.
    crypto::AesBlock block{};
    std::array<std::uint8_t, 64> line{};
    std::vector<double> aesNs, macNs;
    for (int b = 0; b < batches; ++b) {
        auto t = Clock::now();
        for (int i = 0; i < perBatch; ++i)
            block = aes.encryptBlock(block);
        aesNs.push_back(secondsSince(t) * 1e9 / perBatch);

        t = Clock::now();
        for (int i = 0; i < perBatch; ++i) {
            const auto tag = mac->compute(line.data(), line.size());
            line[i % line.size()] ^= tag[0];
        }
        macNs.push_back(secondsSince(t) * 1e9 / perBatch);
    }
    cryptoSink = block[0] ^ line[0];
    return {median(aesNs), median(macNs)};
}

// --- Statistics ---------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = std::size_t(std::ceil(q * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::vector<double> s(v);
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

} // namespace perfbench
