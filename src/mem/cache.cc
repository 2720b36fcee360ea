/**
 * @file
 * Cache level and shared value store implementation.
 */

#include "mem/cache.hh"

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
    : params(p), values(store), memory(mem), below(next),
      tags(p.name, p.sizeBytes, p.assoc), stats_(p.name)
{
    stats_.addScalar(&statHits, "hits", "read/write hits");
    stats_.addScalar(&statMisses, "misses", "read misses");
    stats_.addScalar(&statWritebacks, "writebacks",
                     "dirty blocks written downstream");
    stats_.addScalar(&statEvictions, "evictions",
                     "blocks evicted (clean or dirty)");
    stats_.addHistogram(&statMissLatency, "missLatency",
                        "cycles to fill a read miss from downstream");
}

void
Cache::fill(Addr tag, ValueStore::Slot slot, bool dirty, Tick now)
{
    const Line victim = tags.insert(tag, dirty, slot);
    if (!victim.valid)
        return;
    ++statEvictions;
    if (victim.dirty) {
        ++statWritebacks;
        if (below)
            below->writeback(victim.tag, victim.slot, now);
        else
            memory.writebackBlock(victim.tag, values.value(victim.slot),
                                  now);
    }
    values.drop(victim.slot);
}

Cache::Access
Cache::access(Addr addr, Tick now, bool store)
{
    const Addr tag = blockAlign(addr);
    if (Line *line = tags.find(tag)) {
        ++statHits;
        tags.touch(*line);
        line->dirty |= store;
        return {line->slot, now + params.latency};
    }
    ++statMisses;
    // Hold the value before filling: the victim's writeback may push
    // the block out of the level that just supplied it.
    Access fetched;
    if (below) {
        fetched = below->access(tag, now + params.latency);
        values.hold(fetched.slot);
    } else {
        const ReadResult r = memory.readBlock(tag, now + params.latency);
        fetched = {values.add(tag, r.data), r.completeTick};
    }
    statMissLatency.sample(double(fetched.done - now));
    fill(tag, fetched.slot, store, fetched.done);
    return fetched;
}

Tick
Cache::writeback(Addr tag, ValueStore::Slot slot, Tick now)
{
    const Tick done = now + params.latency;
    if (Line *line = tags.find(tag)) {
        // Every level holding a block shares its slot: nothing to copy.
        ++statHits;
        line->dirty = true;
        tags.touch(*line);
        return done;
    }
    values.hold(slot);
    fill(tag, slot, true, done);
    return done;
}

void
Cache::clean(Addr addr)
{
    if (Line *line = tags.find(addr)) {
        tags.touch(*line);
        line->dirty = false;
    }
}

void
Cache::invalidateAll()
{
    tags.reset([&](const Line &line) { values.drop(line.slot); });
}

void
Cache::collectStateManifests(std::vector<persist::StateManifest> &out,
                             const std::string &instance) const
{
    out.push_back(stateManifest(instance));
    out.push_back(tags.stateManifest(instance, persist::Kind::EadrFlushed));
}

persist::StateManifest
Cache::stateManifest(std::string instance) const
{
    persist::StateManifest m("Cache", std::move(instance));
    DOLOS_MF_CONST(m, params);
    DOLOS_MF_CONST(m, values);
    DOLOS_MF_CONST(m, memory);
    DOLOS_MF_CONST(m, below);
    DOLOS_MF_DELEGATED_V(m, tags);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statHits);
    DOLOS_MF_P(m, statMisses);
    DOLOS_MF_P(m, statWritebacks);
    DOLOS_MF_P(m, statEvictions);
    DOLOS_MF_P(m, statMissLatency);
    return m;
}

} // namespace dolos
