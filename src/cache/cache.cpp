#include "cache/cache.hpp"

#include "common/logging.hpp"

namespace coopsim::cache
{

SetAssocCache::SetAssocCache(const CacheGeometry &geometry,
                             ReplPolicy policy, std::uint64_t seed)
    : slicer_(geometry.numSets(), geometry.block_bytes),
      ways_(geometry.ways),
      tag_(static_cast<std::size_t>(geometry.numSets()) * geometry.ways),
      lru_(tag_.size(), 0),
      state_(tag_.size(), 0),
      owner_(tag_.size(), kNoCore),
      repl_(policy, seed)
{
    COOPSIM_ASSERT(geometry.ways > 0 && geometry.ways <= 64,
                   "associativity must be in [1, 64]");
    COOPSIM_ASSERT(geometry.size_bytes % (static_cast<std::uint64_t>(
                       geometry.ways) * geometry.block_bytes) == 0,
                   "cache size not divisible by way size");
}

LookupResult
SetAssocCache::lookup(Addr addr, WayMask mask) const
{
    const SetId set = slicer_.set(addr);
    const Addr tag = slicer_.tag(addr);
    const std::size_t base = index(set, 0);
    const Addr *tags = &tag_[base];
    const std::uint8_t *state = &state_[base];
    for (WayMask m = mask & fullMask(ways_); m != 0; m &= m - 1) {
        const WayId w = lowestWay(m);
        if ((state[w] & kValidBit) != 0 && tags[w] == tag) {
            return {true, w};
        }
    }
    return {false, kNoWay};
}

void
SetAssocCache::touch(SetId set, WayId way)
{
    lru_[index(set, way)] = ++lru_clock_;
}

WayId
SetAssocCache::victim(SetId set, WayMask mask)
{
    COOPSIM_ASSERT(mask != 0, "victim over empty mask");
    const std::size_t base = index(set, 0);
    const std::uint8_t *state = &state_[base];
    for (WayMask m = mask & fullMask(ways_); m != 0; m &= m - 1) {
        const WayId w = lowestWay(m);
        if ((state[w] & kValidBit) == 0) {
            return w;
        }
    }
    return repl_.victim(&lru_[base], ways_, mask);
}

void
SetAssocCache::insert(Addr addr, SetId set, WayId way, CoreId owner,
                      bool dirty)
{
    COOPSIM_ASSERT(way < ways_, "insert way out of range");
    const std::size_t i = index(set, way);
    tag_[i] = slicer_.tag(addr);
    state_[i] = static_cast<std::uint8_t>(kValidBit |
                                          (dirty ? kDirtyBit : 0));
    owner_[i] = owner;
    lru_[i] = ++lru_clock_;
}

CacheBlock
SetAssocCache::invalidate(SetId set, WayId way)
{
    const CacheBlock before = block(set, way);
    const std::size_t i = index(set, way);
    tag_[i] = 0;
    state_[i] = 0;
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
    blk.valid = (state_[i] & kValidBit) != 0;
    blk.dirty = (state_[i] & kDirtyBit) != 0;
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
SetAssocCache::validCount(SetId set, WayMask mask) const
{
    const std::uint8_t *state = &state_[index(set, 0)];
    std::uint32_t count = 0;
    for (WayMask m = mask & fullMask(ways_); m != 0; m &= m - 1) {
        if ((state[lowestWay(m)] & kValidBit) != 0) {
            ++count;
        }
    }
    return count;
}

std::uint32_t
SetAssocCache::ownedCount(SetId set, WayMask mask, CoreId core) const
{
    const std::size_t base = index(set, 0);
    const std::uint8_t *state = &state_[base];
    const CoreId *owner = &owner_[base];
    std::uint32_t count = 0;
    for (WayMask m = mask & fullMask(ways_); m != 0; m &= m - 1) {
        const WayId w = lowestWay(m);
        if ((state[w] & kValidBit) != 0 && owner[w] == core) {
            ++count;
        }
    }
    return count;
}

WayId
SetAssocCache::lruValidWay(SetId set, WayMask mask) const
{
    const std::size_t base = index(set, 0);
    const std::uint8_t *state = &state_[base];
    const std::uint64_t *lru = &lru_[base];
    WayId best = kNoWay;
    std::uint64_t best_lru = 0;
    for (WayMask m = mask & fullMask(ways_); m != 0; m &= m - 1) {
        const WayId w = lowestWay(m);
        if ((state[w] & kValidBit) == 0) {
            continue;
        }
        if (best == kNoWay || lru[w] < best_lru) {
            best = w;
            best_lru = lru[w];
        }
    }
    return best;
}

} // namespace coopsim::cache
