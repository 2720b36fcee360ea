/**
 * @file
 * Tag-only metadata cache implementation.
 */

#include "secure/tag_cache.hh"

namespace dolos
{

TagCache::TagCache(const TagCacheParams &p) : params(p), stats_(p.name)
{
    DOLOS_ASSERT(p.sizeBytes % (blockSize * p.assoc) == 0,
                 "tag cache %s: bad geometry", p.name.c_str());
    numSets = p.sizeBytes / (blockSize * p.assoc);
    lines.resize(numSets * p.assoc);
    stats_.addScalar(&statHits, "hits", "metadata lookups that hit");
    stats_.addScalar(&statMisses, "misses", "metadata lookups that missed");
    stats_.addScalar(&statDirtyEv, "dirtyEvictions",
                     "dirty metadata blocks evicted");
}

std::size_t
TagCache::setIndex(Addr addr) const
{
    return (addr / blockSize) % numSets;
}

TagCache::Line *
TagCache::findLine(Addr addr)
{
    const Addr tag = blockAlign(addr);
    Line *set = &lines[setIndex(addr) * params.assoc];
    for (unsigned w = 0; w < params.assoc; ++w)
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    return nullptr;
}

const TagCache::Line *
TagCache::findLine(Addr addr) const
{
    return const_cast<TagCache *>(this)->findLine(addr);
}

bool
TagCache::lookup(Addr addr)
{
    if (Line *line = findLine(addr)) {
        ++statHits;
        line->lastUse = ++useClock;
        return true;
    }
    ++statMisses;
    return false;
}

bool
TagCache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

std::optional<EvictedTag>
TagCache::insert(Addr addr, bool dirty)
{
    const Addr tag = blockAlign(addr);
    DOLOS_ASSERT(!contains(tag), "double insert of 0x%llx",
                 (unsigned long long)tag);
    Line *set = &lines[setIndex(tag) * params.assoc];
    Line *victim = &set[0];
    for (unsigned w = 1; w < params.assoc; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (victim->valid && set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }

    std::optional<EvictedTag> evicted;
    if (victim->valid) {
        --entries;
        if (victim->dirty) {
            ++statDirtyEv;
            evicted = EvictedTag{victim->tag};
        }
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tag;
    victim->lastUse = ++useClock;
    ++entries;
    return evicted;
}

void
TagCache::markDirty(Addr addr)
{
    if (Line *line = findLine(addr))
        line->dirty = true;
}

void
TagCache::markClean(Addr addr)
{
    if (Line *line = findLine(addr))
        line->dirty = false;
}

bool
TagCache::isDirty(Addr addr) const
{
    const Line *line = findLine(addr);
    return line && line->dirty;
}

std::size_t
TagCache::slotOf(Addr addr) const
{
    const Line *line = findLine(addr);
    DOLOS_ASSERT(line != nullptr, "slotOf on absent 0x%llx",
                 (unsigned long long)addr);
    return std::size_t(line - lines.data());
}

void
TagCache::forEachDirty(const std::function<void(Addr)> &fn) const
{
    for (const auto &line : lines)
        if (line.valid && line.dirty)
            fn(line.tag);
}

void
TagCache::invalidateAll()
{
    for (auto &line : lines)
        line = Line{};
    entries = 0;
    // The LRU clock is volatile state too: a rebooted machine starts
    // at zero, and a survivor here would leak pre-crash recency into
    // post-recovery victim selection.
    useClock = 0;
}

persist::StateManifest
TagCache::stateManifest(std::string instance) const
{
    persist::StateManifest m("TagCache", std::move(instance));
    DOLOS_MF_CONST(m, params);
    DOLOS_MF_CONST(m, numSets);
    DOLOS_MF_V(m, lines);
    DOLOS_MF_V(m, useClock);
    DOLOS_MF_V(m, entries);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statHits);
    DOLOS_MF_P(m, statMisses);
    DOLOS_MF_P(m, statDirtyEv);
    return m;
}

} // namespace dolos
