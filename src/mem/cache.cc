/**
 * @file
 * Cache level and shared value store implementation.
 */

#include "mem/cache.hh"

#include "sim/logging.hh"

namespace dolos
{

ValueStore::Slot
ValueStore::add(Addr addr, const Block &data)
{
    if (freeSlots.empty()) {
        slots.push_back({data, addr, 1});
        return Slot(slots.size() - 1);
    }
    const Slot s = freeSlots.back();
    freeSlots.pop_back();
    slots[s] = {data, addr, 1};
    return s;
}

Cache::Cache(const CacheParams &p, ValueStore &store, MemDevice &mem,
             Cache *next)
    : params(p), values(store), memory(mem), below(next), stats_(p.name)
{
    DOLOS_ASSERT(p.assoc > 0 && p.sizeBytes > 0 &&
                     p.sizeBytes % (blockSize * p.assoc) == 0,
                 "cache %s: size not divisible by way size",
                 p.name.c_str());
    numSets = p.sizeBytes / (blockSize * p.assoc);
    lines.resize(numSets * p.assoc);

    stats_.addScalar(&statHits, "hits", "read/write hits");
    stats_.addScalar(&statMisses, "misses", "read misses");
    stats_.addScalar(&statWritebacks, "writebacks",
                     "dirty blocks written downstream");
    stats_.addScalar(&statEvictions, "evictions",
                     "blocks evicted (clean or dirty)");
    stats_.addHistogram(&statMissLatency, "missLatency",
                        "cycles to fill a read miss from downstream");
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr / blockSize) % numSets;
}

Cache::Line *
Cache::findLine(Addr addr) const
{
    const Addr tag = blockAlign(addr);
    auto *set = const_cast<Line *>(&lines[setIndex(addr) * params.assoc]);
    for (unsigned w = 0; w < params.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    }
    return nullptr;
}

Cache::Line &
Cache::allocate(Addr addr, Tick now)
{
    Line *set = &lines[setIndex(addr) * params.assoc];
    Line *victim = &set[0];
    for (unsigned w = 1; w < params.assoc; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse && victim->valid)
            victim = &set[w];
    }
    if (victim->valid) {
        ++statEvictions;
        if (victim->dirty) {
            ++statWritebacks;
            if (below)
                below->writeback(victim->tag, victim->slot, now);
            else
                memory.writebackBlock(victim->tag,
                                      values.value(victim->slot), now);
        }
        values.drop(victim->slot);
    }
    return *victim;
}

Cache::Access
Cache::access(Addr addr, Tick now, bool store)
{
    const Addr tag = blockAlign(addr);
    if (Line *line = findLine(tag)) {
        ++statHits;
        line->lastUse = ++useClock;
        line->dirty |= store;
        return {line->slot, now + params.latency};
    }
    ++statMisses;
    // Hold the value before allocating: the victim's writeback may
    // push the block out of the level that just supplied it.
    Access fill;
    if (below) {
        fill = below->access(tag, now + params.latency);
        values.hold(fill.slot);
    } else {
        const ReadResult r = memory.readBlock(tag, now + params.latency);
        fill = {values.add(tag, r.data), r.completeTick};
    }
    statMissLatency.sample(double(fill.done - now));
    allocate(tag, fill.done) = {tag, ++useClock, fill.slot, true, store};
    return fill;
}

Tick
Cache::writeback(Addr tag, ValueStore::Slot slot, Tick now)
{
    const Tick done = now + params.latency;
    if (Line *line = findLine(tag)) {
        // Every level holding a block shares its slot: nothing to copy.
        ++statHits;
        line->dirty = true;
        line->lastUse = ++useClock;
        return done;
    }
    values.hold(slot);
    allocate(tag, done) = {tag, ++useClock, slot, true, true};
    return done;
}

void
Cache::clean(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->lastUse = ++useClock;
        line->dirty = false;
    }
}

void
Cache::invalidateAll()
{
    // Only resident blocks have lines to reset, so a crash costs what
    // the run touched, not the cache's capacity.
    values.forEach([&](Addr addr, const Block &) {
        if (Line *line = findLine(addr)) {
            values.drop(line->slot);
            *line = Line{};
        }
    });
    // The LRU clock is volatile state too: a rebooted machine starts
    // at zero, and a survivor here would leak pre-crash recency into
    // post-recovery victim selection.
    useClock = 0;
}

persist::StateManifest
Cache::stateManifest(std::string instance) const
{
    persist::StateManifest m("Cache", std::move(instance));
    DOLOS_MF_CONST(m, params);
    DOLOS_MF_CONST(m, values);
    DOLOS_MF_CONST(m, memory);
    DOLOS_MF_CONST(m, below);
    DOLOS_MF_CONST(m, numSets);
    DOLOS_MF_EADR_FLUSHED(m, lines);
    DOLOS_MF_V(m, useClock);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statHits);
    DOLOS_MF_P(m, statMisses);
    DOLOS_MF_P(m, statWritebacks);
    DOLOS_MF_P(m, statEvictions);
    DOLOS_MF_P(m, statMissLatency);
    return m;
}

} // namespace dolos
