/**
 * @file
 * Cache hierarchy implementation.
 */

#include "mem/hierarchy.hh"

#include <cstring>
#include <unordered_set>

#include "sim/profiler.hh"

namespace dolos
{

CacheHierarchy::CacheHierarchy(const HierarchyParams &p,
                               PersistController &controller)
    : params(p), mc(controller),
      values((p.l1.sizeBytes + p.l2.sizeBytes + p.llc.sizeBytes) /
             blockSize),
      llc_(p.llc, values, mc), l2_(p.l2, values, mc, &llc_),
      l1_(p.l1, values, mc, &l2_), stats_("hierarchy")
{
    stats_.addScalar(&statLoads, "loads", "core loads");
    stats_.addScalar(&statStores, "stores", "core stores");
    stats_.addScalar(&statClwbs, "clwbs", "CLWB operations");
    stats_.addScalar(&statClwbMisses, "clwbMisses",
                     "CLWBs that found no cached copy");
    stats_.addChild(&l1_.statGroup());
    stats_.addChild(&l2_.statGroup());
    stats_.addChild(&llc_.statGroup());
}

Tick
CacheHierarchy::load(Addr addr, void *out, unsigned size, Tick now)
{
    DOLOS_PROF_SCOPE(CacheModel);
    ++statLoads;
    auto *dst = static_cast<std::uint8_t *>(out);
    Tick done = now;
    Addr cur = addr;
    unsigned remaining = size;
    while (remaining > 0) {
        const Addr base = blockAlign(cur);
        const unsigned off = unsigned(cur - base);
        const unsigned chunk = std::min(remaining, blockSize - off);
        // Block accesses are sequential: a multi-block load pays for
        // each block in turn (rare; workload fields are aligned).
        const Cache::Access a = l1_.access(base, done);
        if (dst) {
            std::memcpy(dst, values.value(a.slot).data() + off, chunk);
            dst += chunk;
        }
        done = a.done;
        cur += chunk;
        remaining -= chunk;
    }
    return done;
}

Tick
CacheHierarchy::store(Addr addr, const void *src, unsigned size, Tick now)
{
    DOLOS_PROF_SCOPE(CacheModel);
    ++statStores;
    const auto *p = static_cast<const std::uint8_t *>(src);
    Tick done = now;
    Addr cur = addr;
    unsigned remaining = size;
    while (remaining > 0) {
        const Addr base = blockAlign(cur);
        const unsigned off = unsigned(cur - base);
        const unsigned chunk = std::min(remaining, blockSize - off);
        // Write-allocate: bring the block into L1, then modify.
        const Cache::Access a = l1_.access(base, done, /*store=*/true);
        std::memcpy(values.value(a.slot).data() + off, p, chunk);
        done = a.done;
        p += chunk;
        cur += chunk;
        remaining -= chunk;
    }
    return done;
}

PersistTicket
CacheHierarchy::clwb(Addr addr, Tick now)
{
    DOLOS_PROF_SCOPE(CacheModel);
    ++statClwbs;
    const Addr base = blockAlign(addr);
    const Tick issue = now + l1_.latency();

    if (params.eadrDomain) {
        // The caches are inside the persistence domain: the line is
        // persistent where it sits, so CLWB completes immediately
        // with no controller traffic and no fence stall to order.
        return {issue, issue};
    }

    // Every level holding the block shares its value, so any dirty
    // copy names the data to persist.
    const Cache::Line *dirty = nullptr;
    for (const Cache *c : {&l1_, &l2_, &llc_})
        if (const Cache::Line *line = c->find(base); line && line->dirty)
            dirty = line;
    if (!dirty) {
        // Nothing (dirty) cached: the line may still be in flight in
        // the controller from an earlier eviction; order against it.
        ++statClwbMisses;
        return {issue, mc.pendingPersistTick(base, issue)};
    }

    for (Cache *c : {&l1_, &l2_, &llc_})
        c->clean(base);
    return mc.persistBlock(base, values.value(dirty->slot), issue);
}

void
CacheHierarchy::invalidateAll()
{
    l1_.invalidateAll();
    l2_.invalidateAll();
    llc_.invalidateAll();
    values.clear();
}

void
CacheHierarchy::collectDirtyLines(std::vector<DirtyLine> &out) const
{
    // Every level holding a block shares its value, so the first
    // capture of a block is as good as any; within a level,
    // set-major index order makes the walk deterministic for a given
    // machine history.
    std::unordered_set<Addr> seen;
    for (const Cache *c : {&l1_, &l2_, &llc_})
        c->forEachLine([&](const Cache::Line &line) {
            if (line.dirty && seen.insert(line.tag).second)
                out.push_back({line.tag, values.value(line.slot)});
        });
}

void
CacheHierarchy::flushAll(Tick now)
{
    std::vector<DirtyLine> dirty;
    collectDirtyLines(dirty);
    for (const auto &line : dirty) {
        mc.persistBlock(line.addr, line.data, now);
        for (Cache *c : {&l1_, &l2_, &llc_})
            c->clean(line.addr);
    }
}

persist::StateManifest
CacheHierarchy::stateManifest() const
{
    persist::StateManifest m("CacheHierarchy");
    DOLOS_MF_CONST(m, params);
    DOLOS_MF_CONST(m, mc);
    DOLOS_MF_EADR_FLUSHED(m, values);
    DOLOS_MF_DELEGATED_V(m, llc_);
    DOLOS_MF_DELEGATED_V(m, l2_);
    DOLOS_MF_DELEGATED_V(m, l1_);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statLoads);
    DOLOS_MF_P(m, statStores);
    DOLOS_MF_P(m, statClwbs);
    DOLOS_MF_P(m, statClwbMisses);
    return m;
}

} // namespace dolos
