/**
 * @file
 * Chunked 8-ary Merkle tree implementation.
 */

#include "secure/merkle_tree.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dolos
{

MerkleTree::MerkleTree(Addr num_leaves, const crypto::MacEngine &mac)
    : numLeaves(num_leaves), mac(mac)
{
    DOLOS_ASSERT(num_leaves > 0, "tree needs at least one leaf");
    Addr n = num_leaves;
    levelSizes.push_back(n);
    while (n > 1) {
        n = (n + arity - 1) / arity;
        levelSizes.push_back(n);
    }

    // Default (all-zero-counters) tags per level.
    defaults.resize(levelSizes.size());
    defaults[0] = leafTagOf(CounterPage{}.pack());
    for (unsigned lvl = 1; lvl < levelSizes.size(); ++lvl) {
        crypto::MacTag children[arity];
        for (auto &c : children)
            c = defaults[lvl - 1];
        defaults[lvl] = hashChildren(lvl, children);
    }

    nodes.resize(levelSizes.size());
    for (unsigned lvl = 0; lvl < levelSizes.size(); ++lvl)
        nodes[lvl].resize((levelSizes[lvl] + chunkNodes - 1) / chunkNodes);
}

crypto::MacTag &
MerkleTree::slot(unsigned level, Addr idx) const
{
    auto &chunk = nodes[level][idx / chunkNodes];
    if (chunk.empty())
        chunk.assign(chunkNodes, defaults[level]);
    return chunk[idx % chunkNodes];
}

crypto::MacTag
MerkleTree::leafTagOf(const Block &packed) const
{
    return mac.compute(packed.data(), packed.size());
}

crypto::MacTag
MerkleTree::hashChildren(unsigned parent_level,
                         const crypto::MacTag *children) const
{
    // Tag the level so a node cannot masquerade at another height.
    const std::uint8_t lvl = std::uint8_t(parent_level);
    return mac.computeParts({{&lvl, 1},
                             {children, arity * sizeof(crypto::MacTag)}});
}

crypto::MacTag
MerkleTree::nodeTag(unsigned level, Addr idx) const
{
    DOLOS_ASSERT(level < levelSizes.size() && idx < levelSizes[level],
                 "node (%u, %llu) out of range", level,
                 (unsigned long long)idx);
    if (level > 0)
        flush();
    const auto &chunk = nodes[level][idx / chunkNodes];
    return chunk.empty() ? defaults[level] : chunk[idx % chunkNodes];
}

void
MerkleTree::recomputeNode(unsigned level, Addr idx) const
{
    // The eight children are contiguous within one chunk (chunks hold
    // whole sibling groups). Slots past the end of a ragged level are
    // never written, so they read as the default tag. An absent chunk
    // means all eight children are default, and so is the parent.
    const Addr first = idx * arity;
    const auto &children = nodes[level - 1][first / chunkNodes];
    slot(level, idx) =
        children.empty()
            ? defaults[level]
            : hashChildren(level, &children[first % chunkNodes]);
}

void
MerkleTree::installLeaf(Addr leaf_idx, const Block &packed)
{
    DOLOS_ASSERT(leaf_idx < numLeaves, "leaf %llu out of range",
                 (unsigned long long)leaf_idx);
    slot(0, leaf_idx) = leafTagOf(packed);
    if (levelSizes.size() > 1)
        dirty.push_back(leaf_idx / arity);
}

void
MerkleTree::updateLeaf(Addr leaf_idx, const Block &packed)
{
    installLeaf(leaf_idx, packed);
    if (dirty.size() >= maxDirty)
        flush();
}

void
MerkleTree::flush() const
{
    if (dirty.empty())
        return;
    // Recompute each distinct dirty node once, level by level, so
    // every child is final before its parent is hashed. Dividing a
    // sorted list by the arity keeps it sorted.
    std::sort(dirty.begin(), dirty.end());
    for (unsigned lvl = 1; lvl < levelSizes.size(); ++lvl) {
        dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
        for (Addr &idx : dirty) {
            recomputeNode(lvl, idx);
            idx /= arity;
        }
    }
    dirty.clear();
}

crypto::MacTag
MerkleTree::root() const
{
    return nodeTag(numLevels() - 1, 0);
}

void
MerkleTree::clear()
{
    for (auto &level : nodes)
        for (auto &chunk : level)
            chunk.clear();
    dirty.clear();
}

std::size_t
MerkleTree::numStoredNodes() const
{
    flush();
    std::size_t n = 0;
    for (unsigned lvl = 0; lvl < nodes.size(); ++lvl)
        for (const auto &chunk : nodes[lvl])
            n += std::size_t(std::count_if(
                chunk.begin(), chunk.end(),
                [&](const crypto::MacTag &t) { return t != defaults[lvl]; }));
    return n;
}

void
MerkleTree::rebuild(const std::unordered_map<Addr, CounterPage> &pages)
{
    clear();
    // Installation order is immaterial: distinct leaves, and the
    // flush sorts the dirty list.
    for (const auto &[leaf_idx, page] : pages) // dolos-lint: allow(determinism)
        installLeaf(leaf_idx, page.pack());
    flush();
}

persist::StateManifest
MerkleTree::stateManifest() const
{
    persist::StateManifest m("MerkleTree");
    DOLOS_MF_CONST(m, numLeaves);
    DOLOS_MF_CONST(m, mac);
    DOLOS_MF_CONST(m, levelSizes);
    DOLOS_MF_CONST(m, defaults);
    DOLOS_MF_V(m, nodes);
    DOLOS_MF_V(m, dirty);
    return m;
}

} // namespace dolos
