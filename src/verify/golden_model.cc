/**
 * @file
 * Golden reference machine implementation.
 */

#include "verify/golden_model.hh"

#include <algorithm>
#include <bit>
#include <bitset>
#include <cstdio>

namespace dolos::verify
{

namespace
{

/** Pretty one-line diagnostic for a byte mismatch. */
std::string
describeMismatch(Addr addr, std::uint8_t observed, const char *expect)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "addr 0x%llx: observed 0x%02x, expected %s",
                  (unsigned long long)addr, observed, expect);
    return buf;
}

/** Bits off .. off + n - 1 of a block byte mask. */
std::uint64_t
byteMask(unsigned off, unsigned n)
{
    return (n == blockSize ? ~0ULL : (1ULL << n) - 1) << off;
}

/** Copy the bytes of @p src that @p mask selects into @p dst. */
void
copyMasked(Block &dst, const Block &src, std::uint64_t mask)
{
    for (; mask; mask &= mask - 1) {
        const unsigned i = unsigned(std::countr_zero(mask));
        dst[i] = src[i];
    }
}

/**
 * Walk @p addr .. @p addr + size - 1 one block at a time:
 * fn(block base, offset in block, byte count, bytes done before).
 */
template <typename Fn>
void
forEachBlockSpan(Addr addr, unsigned size, Fn &&fn)
{
    for (unsigned done = 0; done < size;) {
        const Addr base = blockAlign(addr + done);
        const unsigned off = unsigned(addr + done - base);
        const unsigned n = std::min(size - done, blockSize - off);
        fn(base, off, n, done);
        done += n;
    }
}

} // namespace

void
GoldenModel::recordViolation(Addr addr, std::uint8_t observed,
                             const BlockState *b)
{
    ++violations_;
    if (diagnostics_.size() >= 16)
        return;
    const unsigned i = unsigned(addr % blockSize);
    const std::uint64_t bit = 1ULL << i;
    if (!b || !(b->written & bit)) {
        diagnostics_.push_back(
            describeMismatch(addr, observed, "0x00 (untouched)"));
        return;
    }
    char expect[96];
    if (b->inFlight() & bit) {
        // The admissible set in first-admitted order, each value once.
        std::string set;
        std::bitset<256> listed;
        for (const BlockImage &img : b->admissible) {
            const std::uint8_t v = img.bytes[i];
            if (!(img.mask & bit) || listed.test(v))
                continue;
            listed.set(v);
            char e[8];
            std::snprintf(e, sizeof(e), "%s0x%02x",
                          set.empty() ? "" : ",", v);
            set += e;
        }
        std::snprintf(expect, sizeof(expect), "one of {%s} (in-flight)",
                      set.c_str());
    } else {
        std::snprintf(expect, sizeof(expect), "0x%02x (%s)",
                      b->current[i],
                      b->pending & bit ? "dirty" : "committed");
    }
    diagnostics_.push_back(describeMismatch(addr, observed, expect));
}

void
GoldenModel::onStore(Addr addr, const void *data, unsigned size)
{
    ++seq;
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    forEachBlockSpan(addr, size, [&](Addr base, unsigned off, unsigned n,
                                     unsigned done) {
        BlockState &b = blocks[base];
        BlockImage &s = b.stores.emplace_back();
        s.seq = seq;
        s.mask = byteMask(off, n);
        std::copy_n(bytes + done, n, s.bytes.begin() + off);
        std::copy_n(bytes + done, n, b.current.begin() + off);
        b.written |= s.mask;
        b.pending |= s.mask;
    });
}

void
GoldenModel::onClwb(Addr addr)
{
    // Snapshot the block's program-order position; the fence that
    // retires this CLWB commits the content as of this point.
    flushSnaps.emplace_back(blockAlign(addr), seq);
}

void
GoldenModel::settle(BlockState &b, std::uint64_t settled)
{
    b.ambiguous &= ~settled;
    for (BlockImage &img : b.admissible)
        img.mask &= ~settled;
    std::erase_if(b.admissible,
                  [](const BlockImage &img) { return img.mask == 0; });
}

void
GoldenModel::commitThrough(BlockState &b, std::uint64_t snap)
{
    // The stores at or before the snapshot are a prefix of `stores`.
    // Each byte's latest value among them becomes its durable floor;
    // older values are dead (the WPQ drains in FIFO order, so nothing
    // can resurrect them past this fence).
    auto last = b.stores.begin();
    std::uint64_t committed = 0;
    for (; last != b.stores.end() && last->seq <= snap; ++last) {
        copyMasked(b.floor, last->bytes, last->mask);
        committed |= last->mask;
    }
    if (!committed)
        return;
    b.stores.erase(b.stores.begin(), last);
    b.pending = 0;
    for (const BlockImage &s : b.stores)
        b.pending |= s.mask;
    if (b.ambiguous & committed)
        settle(b, committed);
}

void
GoldenModel::onSfence()
{
    // A block flushed twice commits through its later snapshot; the
    // earlier one commits a prefix of that, so order is harmless.
    for (const auto &[block, snap] : flushSnaps) {
        const auto it = blocks.find(block);
        if (it != blocks.end())
            commitThrough(it->second, snap);
    }
    flushSnaps.clear();
}

void
GoldenModel::onCrash()
{
    ++crashes_;
    flushSnaps.clear();
    for (auto &[block, b] : blocks) {
        if (!b.pending)
            continue; // every byte durable or already forked
        // Fork the admissible sets: the floor of each byte not yet
        // ambiguous (an ambiguous byte keeps its previous set), plus
        // every value stored since — an eviction may have persisted
        // any of them.
        const std::uint64_t fresh = b.pending & ~b.ambiguous;
        if (fresh)
            b.admissible.push_back({0, fresh, b.floor});
        b.admissible.insert(b.admissible.end(), b.stores.begin(),
                            b.stores.end());
        b.stores.clear();
        b.ambiguous |= b.pending;
        b.pending = 0;
    }
}

void
GoldenModel::checkLoad(BlockState &b, Addr addr, unsigned off,
                       const std::uint8_t *bytes, unsigned n)
{
    const std::uint64_t open = b.inFlight() & byteMask(off, n);
    if (!open && std::equal(bytes, bytes + n, b.current.begin() + off))
        return;
    std::uint64_t pinned = 0;
    for (unsigned k = 0; k < n; ++k) {
        const unsigned i = off + k;
        const std::uint64_t bit = 1ULL << i;
        if (!(open & bit)) {
            if (bytes[k] != b.current[i])
                recordViolation(addr + k, bytes[k], &b);
            continue;
        }
        // First observation after a crash: the machine reveals which
        // admissible value survived; pin it.
        const bool admitted = std::any_of(
            b.admissible.begin(), b.admissible.end(),
            [&](const BlockImage &img) {
                return (img.mask & bit) && img.bytes[i] == bytes[k];
            });
        if (!admitted) {
            recordViolation(addr + k, bytes[k], &b);
            continue;
        }
        b.floor[i] = b.current[i] = bytes[k];
        pinned |= bit;
    }
    if (pinned)
        settle(b, pinned);
}

void
GoldenModel::onLoad(Addr addr, const void *data, unsigned size)
{
    checkedLoads_ += size;
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    forEachBlockSpan(addr, size, [&](Addr base, unsigned off, unsigned n,
                                     unsigned done) {
        const auto it = blocks.find(base);
        if (it != blocks.end()) {
            checkLoad(it->second, addr + done, off, bytes + done, n);
            return;
        }
        for (unsigned k = done; k < done + n; ++k)
            if (bytes[k] != 0)
                recordViolation(addr + k, bytes[k], nullptr);
    });
}

void
GoldenModel::onBlockLost(Addr addr)
{
    // Declared loss (quarantine / truncated eADR flush): the block
    // reads as zero from now on, so forget its history — loads then
    // adjudicate against the untouched (must-read-zero) rule, and a
    // later store simply starts tracking it afresh.
    blocks.erase(blockAlign(addr));
}

ByteClass
GoldenModel::classify(Addr addr) const
{
    const auto it = blocks.find(blockAlign(addr));
    const std::uint64_t bit = 1ULL << (addr % blockSize);
    if (it == blocks.end() || !(it->second.written & bit))
        return ByteClass::Untouched;
    if (it->second.inFlight() & bit)
        return ByteClass::InFlight;
    return ByteClass::Committed;
}

BlockCensus
GoldenModel::census(Addr block) const
{
    BlockCensus out;
    const auto it = blocks.find(blockAlign(block));
    if (it == blocks.end()) {
        out.untouched = blockSize;
        return out;
    }
    const BlockState &b = it->second;
    out.inFlight = unsigned(std::popcount(b.inFlight()));
    out.committed = unsigned(std::popcount(b.written)) - out.inFlight;
    out.untouched = blockSize - unsigned(std::popcount(b.written));
    return out;
}

std::vector<Addr>
GoldenModel::trackedBlocks() const
{
    std::vector<Addr> out;
    out.reserve(blocks.size());
    for (const auto &[block, state] : blocks)
        out.push_back(block);
    return out;
}

} // namespace dolos::verify
