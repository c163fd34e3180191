#include "cache/cache.hpp"

namespace coopsim::cache
{

SetAssocCache::SetAssocCache(const CacheGeometry &geometry,
                             ReplPolicy policy, std::uint64_t seed)
    : slicer_(geometry.numSets(), geometry.block_bytes),
      ways_(geometry.ways),
      tag_(static_cast<std::size_t>(geometry.numSets()) * geometry.ways),
      lru_(tag_.size(), 0),
      owner_(tag_.size(), kNoCore),
      valid_(geometry.numSets(), 0),
      dirty_(geometry.numSets(), 0),
      repl_(policy, seed)
{
    COOPSIM_ASSERT(geometry.ways > 0 && geometry.ways <= 64,
                   "associativity must be in [1, 64]");
    COOPSIM_ASSERT(geometry.size_bytes % (static_cast<std::uint64_t>(
                       geometry.ways) * geometry.block_bytes) == 0,
                   "cache size not divisible by way size");
}

CacheBlock
SetAssocCache::invalidate(SetId set, WayId way)
{
    const CacheBlock before = block(set, way);
    const std::size_t i = index(set, way);
    const WayMask keep = ~(WayMask{1} << way);
    tag_[i] = 0;
    valid_[set] &= keep;
    dirty_[set] &= keep;
    owner_[i] = kNoCore;
    lru_[i] = 0;
    return before;
}

CacheBlock
SetAssocCache::block(SetId set, WayId way) const
{
    COOPSIM_ASSERT(way < ways_ && set < numSets(), "block out of range");
    const std::size_t i = index(set, way);
    CacheBlock blk;
    blk.tag = tag_[i];
    blk.valid = validAt(set, way);
    blk.dirty = dirtyAt(set, way);
    blk.owner = owner_[i];
    blk.lru = lru_[i];
    return blk;
}

Addr
SetAssocCache::blockAddr(SetId set, WayId way) const
{
    COOPSIM_ASSERT(validAt(set, way), "blockAddr of invalid block");
    return slicer_.compose(tag_[index(set, way)], set);
}

std::uint32_t
SetAssocCache::ownedCount(SetId set, WayMask mask, CoreId core) const
{
    const CoreId *owner = &owner_[index(set, 0)];
    std::uint32_t count = 0;
    for (WayMask m = mask & valid_[set]; m != 0; m &= m - 1) {
        if (owner[lowestWay(m)] == core) {
            ++count;
        }
    }
    return count;
}

} // namespace coopsim::cache
