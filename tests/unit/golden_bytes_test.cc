/**
 * @file
 * Golden bytes: a short fixed-seed run's functional output is pinned
 * as one digest per mode, so a change to the host crypto (SipHash,
 * AES, counter pads, the Merkle tree) that alters a single
 * ciphertext, MAC or root byte fails here.
 *
 * The run is hashmap, 100 transactions, then a power failure: once per
 * mode on the default machine, and in Dolos-Partial under the Osiris
 * crash scheme, under the lazy ToC tree policy and on the crash-test
 * machine with a 2 KB tree cache. The digest is FNV-1a over, in order:
 *  - every NVM block, sorted by address (address, then 64 bytes);
 *  - the security engine's persistent root register;
 *  - the Mi-SU WPQ-tree root register (all-zero except in Dolos-Full).
 *
 * A deliberate change to what the simulator stores must re-pin these
 * values and say why; a host-speed change never may.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "dolos/system.hh"
#include "verify/sweep_driver.hh"
#include "workloads/runner.hh"

namespace
{

using namespace dolos;
using namespace dolos::workloads;

struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            const auto b = std::uint8_t(v >> (8 * i));
            add(&b, 1);
        }
    }
};

/** Number of integrity-tree nodes the NVM image holds. */
std::size_t
storedTreeNodes(System &sys)
{
    std::size_t n = 0;
    sys.nvmDevice().store().walk(AddressMap::treeBase,
                                 AddressMap::shadowBase,
                                 [&](Addr, const Block &) { ++n; });
    return n;
}

/** Run hashmap for 100 tx on @p cfg, fail power, and digest the bytes. */
std::uint64_t
runDigest(const SystemConfig &cfg, std::size_t *tree_nodes = nullptr)
{
    System sys(cfg);
    auto wl = makeWorkload("hashmap", WorkloadParams{});
    const auto res = runWorkload(sys, *wl, 100);
    EXPECT_TRUE(res.verified) << res.verifyDiagnostic;
    // Power failure: ADR dumps the Mi-SU-protected WPQ, and eADR
    // encrypts every dirty cache line on its way out, so the image
    // also holds bytes that a 100-tx eADR run never writes back.
    sys.crash();
    if (tree_nodes)
        *tree_nodes = storedTreeNodes(sys);

    Fnv1a d;
    sys.nvmDevice().store().walk(
        0, BackingStore::allAddrs, [&](Addr addr, const Block &block) {
            d.add(addr);
            d.add(block.data(), block.size());
        });
    const auto root = sys.engine().persistentRoot();
    d.add(root.data(), root.size());
    crypto::MacTag misu_root{};
    if (const MiSu *misu = sys.controller().misu())
        misu_root = misu->persistentRoot();
    d.add(misu_root.data(), misu_root.size());
    return d.h;
}

SystemConfig
paperConfig(SecurityMode mode)
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = mode;
    return cfg;
}

TEST(GoldenBytes, HashmapDigestPerMode)
{
    const std::pair<SecurityMode, std::uint64_t> pinned[] = {
        {SecurityMode::PreWpqSecure, 0xd802d5e86a1eec54ULL},
        {SecurityMode::DolosFullWpq, 0xfd5e457fe943b1feULL},
        {SecurityMode::DolosPartialWpq, 0x87ce511abf7238dbULL},
        {SecurityMode::DolosPostWpq, 0x919375b2b6cb69e1ULL},
        {SecurityMode::EadrSecure, 0x7fd3bfe66447c676ULL},
    };
    for (const auto &[mode, digest] : pinned) {
        const std::uint64_t got = runDigest(paperConfig(mode));
        EXPECT_EQ(got, digest) << securityModeCliName(mode) << " digest 0x"
                               << std::hex << got;
    }
}

TEST(GoldenBytes, PartialDigestUnderOsiris)
{
    auto cfg = paperConfig(SecurityMode::DolosPartialWpq);
    cfg.secure.crashScheme = CrashScheme::Osiris;
    const std::uint64_t got = runDigest(cfg);
    EXPECT_EQ(got, 0xd00255ee7a723070ULL) << "digest 0x" << std::hex << got;
}

TEST(GoldenBytes, PartialDigestUnderLazyToc)
{
    auto cfg = paperConfig(SecurityMode::DolosPartialWpq);
    cfg.secure.treePolicy = TreeUpdatePolicy::LazyToc;
    const std::uint64_t got = runDigest(cfg);
    EXPECT_EQ(got, 0x57859943e2165f8cULL) << "digest 0x" << std::hex << got;
}

TEST(GoldenBytes, PartialDigestOnCrashTestMachine)
{
    // The crash-test machine's tree cache holds its whole 8192-leaf
    // tree; shrink it so dirty tree nodes are evicted to NVM mid-run.
    // The digest then pins the interior tags as read at eviction
    // time, not only the root register.
    auto cfg = verify::crashTestConfig(SecurityMode::DolosPartialWpq);
    cfg.secure.mtCache = {"mtCache", 2 * 1024, 2};
    std::size_t tree_nodes = 0;
    const std::uint64_t got = runDigest(cfg, &tree_nodes);
    EXPECT_GT(tree_nodes, 0u);
    EXPECT_EQ(got, 0xfbbca38f72581918ULL) << "digest 0x" << std::hex << got;
}

} // namespace
