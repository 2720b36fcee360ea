/**
 * @file
 * Undo-log transaction tests: atomicity across crashes.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "workloads/tx.hh"

namespace
{

using namespace dolos;
using namespace dolos::workloads;

SystemConfig
testConfig()
{
    auto cfg = SystemConfig::paperDefault();
    cfg.mode = SecurityMode::DolosPartialWpq;
    cfg.secure.functionalLeaves = 4096;
    cfg.secure.map.protectedBytes = Addr(4096) * pageBytes;
    return cfg;
}

struct TxTest : ::testing::Test
{
    // (also reused by the death-test fixture alias below)
    System sys{testConfig()};
    PmemEnv env{sys};
    static constexpr Addr a0 = PmemLayout::heapBase;
    static constexpr Addr a1 = PmemLayout::heapBase + 0x40;

    void
    crashAndRecover()
    {
        env.setOpHook(nullptr);
        sys.crash();
        sys.recover();
        env.reattach();
        TxContext::recover(env);
    }
};

TEST_F(TxTest, CommittedTransactionIsDurable)
{
    {
        TxContext tx(env);
        tx.write<std::uint64_t>(a0, 111);
        tx.write<std::uint64_t>(a1, 222);
        tx.commit();
    }
    crashAndRecover();
    EXPECT_EQ(env.read<std::uint64_t>(a0), 111u);
    EXPECT_EQ(env.read<std::uint64_t>(a1), 222u);
}

TEST_F(TxTest, UncommittedTransactionRollsBack)
{
    {
        TxContext tx(env);
        tx.write<std::uint64_t>(a0, 111);
        tx.commit();
    }
    {
        TxContext tx(env);
        tx.write<std::uint64_t>(a0, 999);
        tx.write<std::uint64_t>(a1, 888);
        // no commit: power fails here
    }
    crashAndRecover();
    EXPECT_EQ(env.read<std::uint64_t>(a0), 111u);
    EXPECT_EQ(env.read<std::uint64_t>(a1), 0u);
}

TEST_F(TxTest, RecoverIsIdempotentAndReportsWork)
{
    {
        TxContext tx(env);
        tx.write<std::uint64_t>(a0, 5);
    }
    crashAndRecover();
    EXPECT_EQ(env.read<std::uint64_t>(a0), 0u);
    EXPECT_FALSE(TxContext::recover(env)); // nothing left to do
}

TEST_F(TxTest, TransactionalAllocRollsBackCursor)
{
    const Addr before = env.alloc(8, 8);
    (void)before;
    env.fence();
    Addr allocated = 0;
    {
        TxContext tx(env);
        allocated = tx.alloc(1000, 8);
        tx.write<std::uint64_t>(allocated, 42);
    }
    crashAndRecover();
    // The cursor rolled back: the next allocation reuses the space.
    const Addr again = env.alloc(1000, 8);
    EXPECT_EQ(again, allocated);
}

TEST_F(TxTest, MultiBlockWriteIsAtomic)
{
    std::vector<std::uint8_t> big(300, 0xAA);
    {
        TxContext tx(env);
        tx.write(a0, big.data(), unsigned(big.size()));
        tx.commit();
    }
    std::vector<std::uint8_t> update(300, 0xBB);
    std::uint64_t ops_before = env.opCount();
    // Crash partway through the second transaction's data writes.
    env.setOpHook([&] {
        if (env.opCount() - ops_before > 25)
            throw CrashRequested{};
    });
    bool crashed = false;
    try {
        TxContext tx(env);
        tx.write(a0, update.data(), unsigned(update.size()));
        tx.commit();
    } catch (const CrashRequested &) {
        crashed = true;
    }
    crashAndRecover();
    std::vector<std::uint8_t> out(300);
    env.readBytes(a0, out.data(), 300);
    // All-or-nothing: either the old or the new image, never a mix.
    EXPECT_TRUE(out == big || out == update) << "crashed=" << crashed;
}

TEST_F(TxTest, SequentialTransactionsEachDurable)
{
    for (std::uint64_t i = 0; i < 10; ++i) {
        TxContext tx(env);
        tx.write<std::uint64_t>(a0 + i * 0x40, i + 1);
        tx.commit();
    }
    crashAndRecover();
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(env.read<std::uint64_t>(a0 + i * 0x40), i + 1);
}

TEST_F(TxTest, CommitIsDurableEvenIfCrashFollowsImmediately)
{
    TxContext tx(env);
    tx.write<std::uint64_t>(a0, 777);
    tx.commit();
    // Crash with zero further operations.
    crashAndRecover();
    EXPECT_EQ(env.read<std::uint64_t>(a0), 777u);
}

TEST_F(TxTest, WritePersistIsDurableWithoutCommitFlush)
{
    // writePersist makes data durable eagerly; even an uncommitted
    // transaction's eager writes are rolled back on recovery.
    std::vector<std::uint8_t> v(100, 0x42);
    {
        TxContext tx(env);
        tx.writePersist(a0, v.data(), unsigned(v.size()));
        tx.commit();
    }
    crashAndRecover();
    std::vector<std::uint8_t> out(100);
    env.readBytes(a0, out.data(), 100);
    EXPECT_EQ(out, v);

    {
        TxContext tx(env);
        std::vector<std::uint8_t> w(100, 0x43);
        tx.writePersist(a0, w.data(), unsigned(w.size()));
        // no commit
    }
    crashAndRecover();
    env.readBytes(a0, out.data(), 100);
    EXPECT_EQ(out, v); // rolled back to the committed image
}

TEST_F(TxTest, InterleavedReadsSeeOwnWrites)
{
    TxContext tx(env);
    tx.write<std::uint64_t>(a0, 5);
    EXPECT_EQ(env.read<std::uint64_t>(a0), 5u); // in-place updates
    tx.write<std::uint64_t>(a0, 6);
    tx.commit();
    EXPECT_EQ(env.read<std::uint64_t>(a0), 6u);
}

TEST_F(TxTest, RollbackRestoresIntermediateOverwrites)
{
    {
        TxContext tx(env);
        tx.write<std::uint64_t>(a0, 1);
        tx.commit();
    }
    {
        // Two writes to the same field in one aborted transaction:
        // undo records applied newest-first restore the original.
        TxContext tx(env);
        tx.write<std::uint64_t>(a0, 2);
        tx.write<std::uint64_t>(a0, 3);
    }
    crashAndRecover();
    EXPECT_EQ(env.read<std::uint64_t>(a0), 1u);
}

using TxTestDeath = TxTest;

TEST_F(TxTest, LogOverflowIsAConfigurationError)
{
    // A transaction bigger than the 64 KB undo log is a bad workload
    // size, reported to the caller, not a simulator fault.
    TxContext tx(env);
    std::vector<std::uint8_t> big(4096, 1);
    try {
        for (int i = 0; i < 64; ++i)
            tx.write(a0 + Addr(i) * 4096, big.data(),
                     unsigned(big.size()));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("64 KB undo log"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(TxTestDeath, DoubleCommitPanics)
{
    TxContext tx(env);
    tx.write<std::uint64_t>(a0, 1);
    tx.commit();
    EXPECT_DEATH(tx.commit(), "double commit");
}

TEST_F(TxTestDeath, WriteAfterCommitPanics)
{
    TxContext tx(env);
    tx.commit();
    EXPECT_DEATH(tx.write<std::uint64_t>(a0, 1), "write after commit");
}

} // namespace
