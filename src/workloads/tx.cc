/**
 * @file
 * Undo-log transaction implementation.
 */

#include "workloads/tx.hh"

#include <stdexcept>
#include <string>

#include "sim/logging.hh"

namespace dolos::workloads
{

TxContext::TxContext(PmemEnv &env) : env(env)
{
    // Begin: durably activate the log before any write.
    Header h{1, 0};
    env.writeBytes(PmemLayout::txLogBase, &h, sizeof(h));
    env.flush(PmemLayout::txLogBase, sizeof(h));
    env.fence();
}

TxContext::~TxContext()
{
    // A destructed-but-uncommitted transaction models a crash path:
    // the log stays active and recovery rolls it back. Nothing to do.
}

void
TxContext::appendUndo(Addr addr, unsigned len)
{
    // Record: addr, len, old data. A transaction whose records do not
    // fit is a configuration error (its size), not a simulator fault.
    const unsigned rec_len = 16 + ((len + 7) & ~7u);
    const Addr log_end = PmemLayout::txLogBase + PmemLayout::txLogBytes;
    if (logCursor + rec_len >= log_end)
        throw std::invalid_argument(
            "transaction log overflow: a " + std::to_string(len) +
            "-byte write does not fit in what is left of the " +
            std::to_string(PmemLayout::txLogBytes / 1024) +
            " KB undo log; use a smaller transaction size");
    std::vector<std::uint8_t> old(len);
    env.readBytes(addr, old.data(), len);

    const Addr rec = logCursor;
    env.write<Addr>(rec, addr);
    env.write<std::uint64_t>(rec + 8, len);
    env.writeBytes(rec + 16, old.data(), len);
    logCursor += rec_len;

    // Durably publish the record, then the count.
    env.flush(rec, rec_len);
    env.fence();
    ++numRecords;
    env.write<std::uint64_t>(PmemLayout::txLogBase + 8, numRecords);
    env.flush(PmemLayout::txLogBase + 8, 8);
    env.fence();
}

void
TxContext::write(Addr addr, const void *src, unsigned len)
{
    DOLOS_ASSERT(!committed_, "write after commit");
    appendUndo(addr, len);
    env.writeBytes(addr, src, len);
    for (Addr b = blockAlign(addr); b < addr + len; b += blockSize)
        dirtyBlocks.insert(b);
}

void
TxContext::writePersist(Addr addr, const void *src, unsigned len)
{
    DOLOS_ASSERT(!committed_, "write after commit");
    appendUndo(addr, len);
    env.writeBytes(addr, src, len);
    env.flush(addr, len);
    env.fence();
}

Addr
TxContext::alloc(unsigned size, unsigned align)
{
    // Undo-log the allocator cursor so an aborted transaction also
    // releases its allocations, then delegate.
    appendUndo(PmemLayout::allocCursorAddr, sizeof(Addr));
    const Addr a = env.alloc(size, align);
    dirtyBlocks.insert(blockAlign(PmemLayout::allocCursorAddr));
    return a;
}

void
TxContext::commit()
{
    DOLOS_ASSERT(!committed_, "double commit");
    // Flush all in-place updates, fence, then deactivate the log.
    for (const Addr b : dirtyBlocks)
        env.flush(b, 1);
    env.fence();

    env.write<std::uint64_t>(PmemLayout::txLogBase, 0);
    env.flush(PmemLayout::txLogBase, 8);
    env.fence();
    committed_ = true;
}

bool
TxContext::recover(PmemEnv &env)
{
    Header h{};
    env.readBytes(PmemLayout::txLogBase, &h, sizeof(h));
    if (h.active != 1)
        return false;

    // Collect record offsets, then apply undo newest-first.
    std::vector<std::pair<Addr, std::uint64_t>> records; // (rec, len)
    Addr cursor = recordBase;
    for (std::uint64_t i = 0; i < h.numRecords; ++i) {
        const auto len = env.read<std::uint64_t>(cursor + 8);
        records.emplace_back(cursor, len);
        cursor += 16 + ((len + 7) & ~7ULL);
    }
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
        const Addr rec = it->first;
        const unsigned len = unsigned(it->second);
        const Addr target = env.read<Addr>(rec);
        std::vector<std::uint8_t> old(len);
        env.readBytes(rec + 16, old.data(), len);
        env.writeBytes(target, old.data(), len);
        env.flush(target, len);
    }
    env.fence();

    env.write<std::uint64_t>(PmemLayout::txLogBase, 0);
    env.flush(PmemLayout::txLogBase, 8);
    env.fence();
    env.reattach(); // the allocator cursor may have been rolled back
    return true;
}

} // namespace dolos::workloads
