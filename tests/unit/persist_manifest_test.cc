/**
 * @file
 * Unit tests for the persist-domain crash-state model: the describe()
 * serializer, the StateManifest registry, the manifest topology of a
 * full System, and the power-loss differential in all three Mi-SU
 * modes (the runtime half of the dolos_lint static checks).
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <unordered_map>

#include "dolos/system.hh"
#include "sim/persist_annotations.hh"
#include "verify/manifest_check.hh"
#include "verify/sweep_driver.hh"
#include "workloads/runner.hh"

using namespace dolos;
using persist::describe;
using persist::Kind;
using persist::StateManifest;

TEST(Describe, Scalars)
{
    EXPECT_EQ(describe(std::uint64_t(42)), "42");
    EXPECT_EQ(describe(true), "true");
    EXPECT_EQ(describe(false), "false");
    EXPECT_EQ(describe(std::string("hi")), "\"hi\"");
    EXPECT_EQ(describe(SecurityMode::DolosPartialWpq),
              std::to_string(
                  std::uint64_t(SecurityMode::DolosPartialWpq)));
}

TEST(Describe, PointerOptionalPair)
{
    int x = 0;
    int *set = &x;
    int *null = nullptr;
    EXPECT_EQ(describe(set), "&set");
    EXPECT_EQ(describe(null), "null");
    EXPECT_EQ(describe(std::optional<int>{}), "nullopt");
    EXPECT_EQ(describe(std::optional<int>{7}), "7");
    EXPECT_EQ(describe(std::pair<int, bool>{3, true}), "(3,true)");
}

TEST(Describe, ByteBlobIsHex)
{
    const std::array<std::uint8_t, 3> blob{0x00, 0xab, 0xf1};
    EXPECT_EQ(describe(blob), "00abf1");
}

TEST(Describe, SequencesAndMaps)
{
    const std::vector<int> v{1, 2, 3};
    EXPECT_EQ(describe(v), "[1;2;3;]");
    const std::map<std::uint64_t, int> m{{2, 20}, {1, 10}};
    EXPECT_EQ(describe(m), "{1:10;2:20;}");
}

TEST(Describe, UnorderedMapIsCanonical)
{
    // Same entries, opposite insertion order: identical rendering.
    std::unordered_map<std::uint64_t, int> a, b;
    for (int i = 0; i < 64; ++i)
        a[i] = i * 3;
    for (int i = 63; i >= 0; --i)
        b[i] = i * 3;
    EXPECT_EQ(describe(a), describe(b));
}

TEST(StateManifest, LabelsAndKinds)
{
    StateManifest m("Widget", "w0");
    int field = 9;
    m.add("field", Kind::Volatile,
          [&field] { return describe(field); });
    m.addDelegated("sub", Kind::Persistent);
    ASSERT_EQ(m.fields().size(), 2u);
    EXPECT_EQ(m.label(m.fields()[0]), "Widget(w0).field");
    EXPECT_EQ(m.fields()[0].kind, Kind::Volatile);
    EXPECT_EQ(m.fields()[0].snapshot(), "9");
    EXPECT_TRUE(m.fields()[1].delegated);
    EXPECT_FALSE(m.fields()[0].delegated);
}

TEST(StateManifest, DuplicateRegistrationPanics)
{
    StateManifest m("Widget");
    m.add("field", Kind::Persistent, [] { return std::string("1"); });
    EXPECT_DEATH(m.add("field", Kind::Persistent,
                       [] { return std::string("1"); }),
                 "registered twice");
}

namespace
{

SystemConfig
configFor(SecurityMode mode)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    return cfg;
}

} // namespace

TEST(ManifestTopology, EveryStateClassRegisters)
{
    const System sys(configFor(SecurityMode::DolosPartialWpq));
    const auto manifests = sys.collectStateManifests();

    std::set<std::string> names;
    for (const auto &m : manifests) {
        std::string id = m.className();
        if (!m.instance().empty())
            id += "(" + m.instance() + ")";
        EXPECT_TRUE(names.insert(id).second)
            << "duplicate manifest " << id;
    }
    // The full Dolos machine: System, SimpleCore, CacheHierarchy,
    // Cache x3, SecureMemController, MiSu, RedoLogBuffer,
    // SecurityEngine, CounterStore, MerkleTree, MetaCache x2,
    // AnubisShadow, NvmDevice, BackingStore, and a TagArray for each
    // of the five caches.
    EXPECT_EQ(manifests.size(), 22u);
    for (const char *expected :
         {"System", "SimpleCore", "CacheHierarchy", "Cache(l1)",
          "Cache(l2)", "Cache(llc)", "SecureMemController", "MiSu",
          "RedoLogBuffer", "SecurityEngine", "CounterStore",
          "MerkleTree", "MetaCache(ctrCache)", "MetaCache(mtCache)",
          "AnubisShadow", "NvmDevice", "BackingStore", "TagArray(l1)",
          "TagArray(l2)", "TagArray(llc)", "TagArray(ctrCache)",
          "TagArray(mtCache)"})
        EXPECT_TRUE(names.count(expected)) << "missing " << expected;
}

TEST(ManifestTopology, SnapshotsAreLiveAndNonEmpty)
{
    const System sys(configFor(SecurityMode::DolosFullWpq));
    for (const auto &m : sys.collectStateManifests()) {
        EXPECT_FALSE(m.fields().empty())
            << m.className() << " registers no fields";
        for (const auto &f : m.fields()) {
            if (f.delegated) {
                EXPECT_EQ(f.snapshot, nullptr) << m.label(f);
                continue;
            }
            ASSERT_NE(f.snapshot, nullptr) << m.label(f);
            EXPECT_FALSE(f.snapshot().empty()) << m.label(f);
        }
    }
}

namespace
{

void
expectDifferentialPasses(SecurityMode mode, std::uint64_t seed)
{
    const auto res = verify::verifyCrashManifest(mode, seed);
    EXPECT_TRUE(res.ok()) << verify::formatManifestReport(res);
    EXPECT_TRUE(res.recoveryVerified);
    EXPECT_EQ(res.manifests, 22u);
    // Well over a hundred individually checked fields; delegation
    // covers the rest through their own manifests.
    EXPECT_GT(res.fieldsChecked, 100u);
}

} // namespace

TEST(PowerLossDifferential, FullWpq)
{
    expectDifferentialPasses(SecurityMode::DolosFullWpq, 1);
}

TEST(PowerLossDifferential, PartialWpq)
{
    expectDifferentialPasses(SecurityMode::DolosPartialWpq, 1);
}

TEST(PowerLossDifferential, PostWpq)
{
    expectDifferentialPasses(SecurityMode::DolosPostWpq, 1);
}

TEST(PowerLossDifferential, SeedIndependent)
{
    for (const std::uint64_t seed : {2ull, 99ull, 0xdecafull})
        expectDifferentialPasses(SecurityMode::DolosPartialWpq, seed);
}

TEST(PowerLossDifferential, AllModesHelper)
{
    // The three Mi-SU modes plus EadrSecure (quiesced, so its holdup
    // flush is a no-op and the differential compares a pure reset).
    const auto all = verify::verifyCrashManifestAllModes(3);
    ASSERT_EQ(all.size(), 4u);
    for (const auto &res : all) {
        EXPECT_TRUE(res.ok()) << verify::formatManifestReport(res);
        const auto report = verify::formatManifestReport(res);
        EXPECT_NE(report.find(securityModeName(res.mode)),
                  std::string::npos);
        EXPECT_NE(report.find("0 mismatch(es)"), std::string::npos);
    }
}

TEST(CacheValueStore, HoldsExactlyTheResidentBlocks)
{
    // One value per block resident in any cache level after a run on
    // the crash-sweep machine, and none once a crash has emptied the
    // caches.
    System sys(verify::crashTestConfig(SecurityMode::DolosPartialWpq));
    auto wl = workloads::makeWorkload("hashmap", verify::crashTestParams(3));
    const auto res = workloads::runWorkload(sys, *wl, 60);
    ASSERT_TRUE(res.verified) << res.verifyDiagnostic;

    auto &h = sys.hierarchy();
    std::set<Addr> tags;
    for (const Cache *c : {&h.l1(), &h.l2(), &h.llc()})
        c->forEachLine([&](const Cache::Line &l) { tags.insert(l.tag); });
    std::set<Addr> stored;
    h.valueStore().forEach(
        [&](Addr a, const Block &) { stored.insert(a); });
    EXPECT_GT(tags.size(), 0u);
    EXPECT_EQ(h.valueStore().size(), tags.size());
    EXPECT_EQ(stored, tags);

    sys.crash();
    EXPECT_EQ(h.valueStore().size(), 0u);
}
