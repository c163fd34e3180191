/**
 * @file
 * Generic set-associative cache storage.
 *
 * SetAssocCache is the tag/state array of the shared LLC (src/llc). It
 * stores tags, per-block owner core and LRU state, plus one valid word
 * and one dirty word per set, and exposes way-mask-restricted lookup
 * and victim selection — the primitive on which way partitioning is
 * built. Validity and dirtiness are way masks themselves, so "the
 * valid ways of this mask" or "its lowest invalid way" is one mask
 * operation, not a scan.
 *
 * Way masks are 64-bit bitmaps (bit w = way w; cache/replacement.hpp),
 * so associativity is limited to 64, far above the paper's 16-way LLC.
 *
 * The per-access steps are defined here, in the header, so that a
 * scheme's access() inlines them.
 */

#ifndef COOPSIM_CACHE_CACHE_HPP
#define COOPSIM_CACHE_CACHE_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/replacement.hpp"
#include "common/geometry.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"

namespace coopsim::cache
{

/**
 * State of one cache block (tag entry), as a value snapshot.
 *
 * Storage inside SetAssocCache is struct-of-arrays (one contiguous
 * array per field, sized per geometry, and a valid and a dirty word
 * per set), so the masked hot loops scan dense tags instead of
 * striding over 24-byte records; block() assembles this view on
 * demand for inspection paths.
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

    bool operator==(const CacheGeometry &) const = default;
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
     * Searches @p mask ways of the set for @p addr; the lowest
     * matching valid way wins.
     * Does not update LRU state — callers decide (Cooperative drops a
     * write hit in a way its core is donating instead of serving it).
     */
    LookupResult lookup(Addr addr, WayMask mask) const
    {
        const SetId set = slicer_.set(addr);
        const Addr tag = slicer_.tag(addr);
        const Addr *tags = &tag_[index(set, 0)];
        for (WayMask m = mask & valid_[set]; m != 0; m &= m - 1) {
            const WayId w = lowestWay(m);
            if (tags[w] == tag) {
                return {true, w};
            }
        }
        return {false, kNoWay};
    }

    /** Marks (set, way) as most recently used. */
    void touch(SetId set, WayId way)
    {
        lru_[index(set, way)] = ++lru_clock_;
    }

    /**
     * Picks a victim way within @p mask: its lowest invalid way if it
     * has one, otherwise per the replacement policy. @p mask must
     * select at least one of the cache's ways.
     */
    WayId victim(SetId set, WayMask mask)
    {
        mask &= fullMask(ways_);
        COOPSIM_ASSERT(mask != 0, "victim selection over empty mask");
        const WayMask invalid = mask & ~valid_[set];
        if (invalid != 0) {
            return lowestWay(invalid);
        }
        return repl_.victim(&lru_[index(set, 0)], ways_, mask);
    }

    /**
     * Installs @p addr in (set, way), overwriting whatever is there.
     * The block becomes valid and most recently used.
     */
    void insert(Addr addr, SetId set, WayId way, CoreId owner, bool dirty)
    {
        COOPSIM_ASSERT(way < ways_, "insert way out of range");
        const std::size_t i = index(set, way);
        const WayMask bit = WayMask{1} << way;
        tag_[i] = slicer_.tag(addr);
        valid_[set] |= bit;
        dirty_[set] = (dirty_[set] & ~bit) | (dirty ? bit : 0);
        owner_[i] = owner;
        lru_[i] = ++lru_clock_;
    }

    /** Invalidates (set, way); returns the block state before. */
    CacheBlock invalidate(SetId set, WayId way);

    /** Value snapshot of (set, way), assembled from the SoA arrays.
     *  Prefer the *At accessors below on hot paths that read a single
     *  field. */
    CacheBlock block(SetId set, WayId way) const;

    // Single-field reads/writes against the SoA arrays.
    bool validAt(SetId set, WayId way) const
    {
        return ((valid_[set] >> way) & 1) != 0;
    }
    bool dirtyAt(SetId set, WayId way) const
    {
        return ((dirty_[set] >> way) & 1) != 0;
    }
    CoreId ownerAt(SetId set, WayId way) const
    {
        return owner_[index(set, way)];
    }
    void setDirty(SetId set, WayId way, bool dirty)
    {
        const WayMask bit = WayMask{1} << way;
        dirty_[set] = (dirty_[set] & ~bit) | (dirty ? bit : 0);
    }
    /** Re-tags (set, way)'s data to @p owner (UCP hit re-attribution). */
    void setOwner(SetId set, WayId way, CoreId owner)
    {
        owner_[index(set, way)] = owner;
    }

    /** The valid ways of @p set. */
    WayMask validMask(SetId set) const { return valid_[set]; }

    /** Block-aligned address stored in (set, way); block must be valid. */
    Addr blockAddr(SetId set, WayId way) const;

    /** Number of valid blocks in @p set covered by @p mask. */
    std::uint32_t validCount(SetId set, WayMask mask) const
    {
        return static_cast<std::uint32_t>(
            std::popcount(mask & valid_[set]));
    }

    /** Number of valid blocks owned by @p core in @p set under @p mask. */
    std::uint32_t ownedCount(SetId set, WayMask mask, CoreId core) const;

    /** Least recently used valid way in @p mask, or kNoWay if none. */
    WayId lruValidWay(SetId set, WayMask mask) const
    {
        const WayMask valid = mask & valid_[set];
        return valid == 0
                   ? kNoWay
                   : extremeStampWay<false>(&lru_[index(set, 0)], valid);
    }

    const AddrSlicer &slicer() const { return slicer_; }
    std::uint32_t numSets() const { return slicer_.numSets(); }
    std::uint32_t ways() const { return ways_; }

  private:
    std::size_t index(SetId set, WayId way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    AddrSlicer slicer_;
    std::uint32_t ways_;
    /**
     * Struct-of-arrays tag/metadata store, each array sized
     * sets x ways for the configured geometry. The masked lookup scans
     * the valid ways' tags only (dense 8-byte tags, instead of
     * striding over 24-byte records); lru_ is touched by recency
     * updates and victim search; owner_ only by the partitioning
     * bookkeeping.
     */
    std::vector<Addr> tag_;
    std::vector<std::uint64_t> lru_;
    std::vector<CoreId> owner_;
    /** One word per set: bit w of valid_[set] is set while way w holds
     *  a block, bit w of dirty_[set] while it holds a dirty one. Bits
     *  at or above ways_ are always clear. */
    std::vector<WayMask> valid_;
    std::vector<WayMask> dirty_;
    std::uint64_t lru_clock_ = 0;
    ReplacementPolicy repl_;
};

} // namespace coopsim::cache

#endif // COOPSIM_CACHE_CACHE_HPP
