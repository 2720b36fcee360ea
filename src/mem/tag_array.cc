/**
 * @file
 * Set-associative LRU tag array implementation.
 */

#include "mem/tag_array.hh"

#include "sim/logging.hh"

namespace dolos
{

std::string
TagArray::geometryError(std::uint64_t size_bytes, unsigned assoc)
{
    if (size_bytes == 0)
        return "sizeBytes must be nonzero";
    if (assoc == 0)
        return "assoc must be nonzero";
    if (size_bytes % (blockSize * assoc) != 0)
        return "sizeBytes (" + std::to_string(size_bytes) +
               ") must be a multiple of 64 x assoc (" +
               std::to_string(blockSize * assoc) + ")";
    return "";
}

TagArray::TagArray(const std::string &name, std::uint64_t size_bytes,
                   unsigned ways)
    : assoc(ways)
{
    const std::string bad = geometryError(size_bytes, ways);
    DOLOS_ASSERT(bad.empty(), "cache %s: bad geometry: %s", name.c_str(),
                 bad.c_str());
    numSets = size_bytes / (blockSize * ways);
    lines.resize(numSets * ways);
}

TagArray::Line
TagArray::insert(Addr addr, bool dirty, std::uint32_t slot)
{
    const Addr tag = blockAlign(addr);
    DOLOS_ASSERT(!find(tag), "double insert of 0x%llx",
                 (unsigned long long)tag);
    Line *set = &lines[setIndex(tag) * assoc];
    Line *victim = &set[0];
    for (unsigned w = 1; w < assoc; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (victim->valid && set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    const Line displaced = *victim;
    if (!displaced.valid)
        filled.push_back(std::uint32_t(victim - lines.data()));
    *victim = {tag, ++useClock, slot, true, dirty};
    return displaced;
}

std::size_t
TagArray::slotOf(Addr addr) const
{
    const Line *line = find(addr);
    DOLOS_ASSERT(line != nullptr, "slotOf on absent 0x%llx",
                 (unsigned long long)addr);
    return std::size_t(line - lines.data());
}

persist::StateManifest
TagArray::stateManifest(std::string instance, persist::Kind contents) const
{
    persist::StateManifest m("TagArray", std::move(instance));
    DOLOS_MF_CONST(m, assoc);
    DOLOS_MF_CONST(m, numSets);
    m.add("lines", contents, [this] { return persist::describe(lines); });
    DOLOS_MF_V(m, filled);
    DOLOS_MF_V(m, useClock);
    return m;
}

} // namespace dolos
