/**
 * @file
 * Generic set-associative cache storage.
 *
 * SetAssocCache is the tag/state array of the shared LLC (src/llc). It
 * stores tags, dirty bits, per-block owner core and LRU state, and
 * exposes way-mask-restricted lookup and victim selection — the
 * primitive on which way partitioning is built.
 *
 * Way masks are 64-bit bitmaps (bit w = way w), so associativity is
 * limited to 64, far above the paper's 16-way LLC.
 */

#ifndef COOPSIM_CACHE_CACHE_HPP
#define COOPSIM_CACHE_CACHE_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/replacement.hpp"
#include "common/geometry.hpp"
#include "common/types.hpp"

namespace coopsim::cache
{

/** Bitmap over the ways of a set: bit w set means way w is included. */
using WayMask = std::uint64_t;

/** A mask covering ways [0, ways). */
constexpr WayMask
fullMask(std::uint32_t ways)
{
    return ways >= 64 ? ~WayMask{0} : ((WayMask{1} << ways) - 1);
}

/**
 * Index of the lowest set bit of a non-empty mask. The hot loops visit
 * only the ways actually present in a mask — `mask & (mask - 1)` clears
 * the bit just visited — instead of testing all 64 way positions.
 */
constexpr WayId
lowestWay(WayMask mask)
{
    return static_cast<WayId>(std::countr_zero(mask & -mask));
}

/**
 * State of one cache block (tag entry), as a value snapshot.
 *
 * Storage inside SetAssocCache is struct-of-arrays (one contiguous
 * array per field, sized per geometry), so the masked hot loops scan
 * dense tag/state words instead of striding over 24-byte records;
 * block() assembles this view on demand for inspection paths.
 */
struct CacheBlock
{
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    /**
     * Core whose data this block holds. The paper adds two bits per tag
     * entry for this purpose (Section 2.5, replacement-policy overhead).
     */
    CoreId owner = kNoCore;
    /** LRU timestamp: larger is more recent. */
    std::uint64_t lru = 0;
};

/** Result of a masked lookup. */
struct LookupResult
{
    bool hit = false;
    WayId way = kNoWay;
};

/** Geometry of a set-associative cache. */
struct CacheGeometry
{
    std::uint64_t size_bytes = 0;
    std::uint32_t ways = 0;
    std::uint32_t block_bytes = 64;

    std::uint32_t numSets() const
    {
        return static_cast<std::uint32_t>(
            size_bytes / (static_cast<std::uint64_t>(ways) * block_bytes));
    }
};

/**
 * Tag/state array of a set-associative cache with mask-restricted
 * operations. Timing and policy live in the callers.
 */
class SetAssocCache
{
  public:
    /**
     * @param geometry Size/ways/block size; sets derived, must be a
     *                 power of two.
     * @param policy   Victim selection policy within the allowed mask.
     */
    explicit SetAssocCache(const CacheGeometry &geometry,
                           ReplPolicy policy = ReplPolicy::Lru,
                           std::uint64_t seed = 1);

    /**
     * Searches @p mask ways of the set for @p addr.
     * Does not update LRU state — callers decide (Cooperative drops a
     * write hit in a way its core is donating instead of serving it).
     */
    LookupResult lookup(Addr addr, WayMask mask) const;

    /** Marks (set, way) as most recently used. */
    void touch(SetId set, WayId way);

    /**
     * Picks a victim way within @p mask: an invalid way if one exists,
     * otherwise per the replacement policy. @p mask must be non-empty.
     */
    WayId victim(SetId set, WayMask mask);

    /**
     * Installs @p addr in (set, way), overwriting whatever is there.
     * The block becomes valid and most recently used.
     */
    void insert(Addr addr, SetId set, WayId way, CoreId owner, bool dirty);

    /** Invalidates (set, way); returns the block state before. */
    CacheBlock invalidate(SetId set, WayId way);

    /** Value snapshot of (set, way), assembled from the SoA arrays.
     *  Prefer the *At accessors below on hot paths that read a single
     *  field. */
    CacheBlock block(SetId set, WayId way) const;

    // Single-field reads/writes against the SoA arrays.
    bool validAt(SetId set, WayId way) const
    {
        return (state_[index(set, way)] & kValidBit) != 0;
    }
    bool dirtyAt(SetId set, WayId way) const
    {
        return (state_[index(set, way)] & kDirtyBit) != 0;
    }
    CoreId ownerAt(SetId set, WayId way) const
    {
        return owner_[index(set, way)];
    }
    void setDirty(SetId set, WayId way, bool dirty)
    {
        std::uint8_t &state = state_[index(set, way)];
        state = dirty ? (state | kDirtyBit)
                      : (state & static_cast<std::uint8_t>(~kDirtyBit));
    }
    /** Re-tags (set, way)'s data to @p owner (UCP hit re-attribution). */
    void setOwner(SetId set, WayId way, CoreId owner)
    {
        owner_[index(set, way)] = owner;
    }

    /** Block-aligned address stored in (set, way); block must be valid. */
    Addr blockAddr(SetId set, WayId way) const;

    /** Number of valid blocks in @p set covered by @p mask. */
    std::uint32_t validCount(SetId set, WayMask mask) const;

    /** Number of valid blocks owned by @p core in @p set under @p mask. */
    std::uint32_t ownedCount(SetId set, WayMask mask, CoreId core) const;

    /** Least recently used valid way in @p mask, or kNoWay if none. */
    WayId lruValidWay(SetId set, WayMask mask) const;

    const AddrSlicer &slicer() const { return slicer_; }
    std::uint32_t numSets() const { return slicer_.numSets(); }
    std::uint32_t ways() const { return ways_; }

  private:
    /** state_ bit layout. */
    static constexpr std::uint8_t kValidBit = 1;
    static constexpr std::uint8_t kDirtyBit = 2;

    std::size_t index(SetId set, WayId way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    AddrSlicer slicer_;
    std::uint32_t ways_;
    /**
     * Struct-of-arrays tag/metadata store, each array sized
     * sets x ways for the configured geometry. The masked lookup scans
     * tag_/state_ only (dense 8-byte tags plus 1-byte state, instead
     * of striding over 24-byte records); lru_ is touched by recency
     * updates and victim search; owner_ only by the partitioning
     * bookkeeping.
     */
    std::vector<Addr> tag_;
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint8_t> state_;
    std::vector<CoreId> owner_;
    std::uint64_t lru_clock_ = 0;
    ReplacementPolicy repl_;
};

} // namespace coopsim::cache

#endif // COOPSIM_CACHE_CACHE_HPP
