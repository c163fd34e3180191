/**
 * @file
 * Unit tests for the set-associative cache substrate: storage, masked
 * lookup/victim selection, replacement policies and the L1.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"

using namespace coopsim;
using namespace coopsim::cache;

namespace
{

CacheGeometry
tinyGeometry()
{
    // 16 sets x 4 ways x 64 B.
    return CacheGeometry{16 * 4 * 64, 4, 64};
}

Addr
makeAddr(Addr tag, SetId set)
{
    return (tag << (6 + 4)) | (static_cast<Addr>(set) << 6);
}

} // namespace

TEST(SetAssocCache, MissThenHitAfterInsert)
{
    SetAssocCache cache(tinyGeometry());
    const Addr addr = makeAddr(5, 3);
    const WayMask all = fullMask(4);

    EXPECT_FALSE(cache.lookup(addr, all).hit);
    const WayId way = cache.victim(3, all);
    cache.insert(addr, 3, way, 0, false);
    const auto found = cache.lookup(addr, all);
    EXPECT_TRUE(found.hit);
    EXPECT_EQ(found.way, way);
}

TEST(SetAssocCache, MaskedLookupIgnoresOtherWays)
{
    SetAssocCache cache(tinyGeometry());
    const Addr addr = makeAddr(7, 1);
    cache.insert(addr, 1, 2, 0, false);
    EXPECT_TRUE(cache.lookup(addr, WayMask{1} << 2).hit);
    EXPECT_FALSE(cache.lookup(addr, WayMask{1} << 1).hit);
    EXPECT_FALSE(cache.lookup(addr, 0b0011).hit);
}

TEST(SetAssocCache, VictimPrefersInvalidWays)
{
    SetAssocCache cache(tinyGeometry());
    cache.insert(makeAddr(1, 0), 0, 0, 0, false);
    cache.insert(makeAddr(2, 0), 0, 1, 0, false);
    const WayId victim = cache.victim(0, fullMask(4));
    EXPECT_TRUE(victim == 2 || victim == 3);
}

TEST(SetAssocCache, LruVictimIsOldest)
{
    SetAssocCache cache(tinyGeometry());
    for (WayId w = 0; w < 4; ++w) {
        cache.insert(makeAddr(w + 1, 0), 0, w, 0, false);
    }
    // Touch everything except way 2.
    cache.touch(0, 0);
    cache.touch(0, 1);
    cache.touch(0, 3);
    EXPECT_EQ(cache.victim(0, fullMask(4)), 2u);
}

TEST(SetAssocCache, VictimStaysInsideMask)
{
    SetAssocCache cache(tinyGeometry());
    for (WayId w = 0; w < 4; ++w) {
        cache.insert(makeAddr(w + 1, 5), 5, w, 0, false);
    }
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        const WayMask mask = (rng.next() & 0xF) | 0x1; // non-empty
        const WayId victim = cache.victim(5, mask);
        EXPECT_TRUE((mask >> victim) & 1);
    }
}

TEST(SetAssocCache, InvalidateReturnsPriorState)
{
    SetAssocCache cache(tinyGeometry());
    cache.insert(makeAddr(9, 2), 2, 1, 3, true);
    const CacheBlock old = cache.invalidate(2, 1);
    EXPECT_TRUE(old.valid);
    EXPECT_TRUE(old.dirty);
    EXPECT_EQ(old.owner, 3u);
    EXPECT_FALSE(cache.block(2, 1).valid);
}

TEST(SetAssocCache, BlockAddrReconstructs)
{
    SetAssocCache cache(tinyGeometry());
    const Addr addr = makeAddr(11, 6) + 17; // unaligned input
    const Addr aligned = cache.slicer().blockAlign(addr);
    cache.insert(aligned, 6, 0, 0, false);
    EXPECT_EQ(cache.blockAddr(6, 0), aligned);
}

TEST(SetAssocCache, OwnedAndValidCounts)
{
    SetAssocCache cache(tinyGeometry());
    cache.insert(makeAddr(1, 4), 4, 0, 0, false);
    cache.insert(makeAddr(2, 4), 4, 1, 1, false);
    cache.insert(makeAddr(3, 4), 4, 2, 1, false);
    const WayMask all = fullMask(4);
    EXPECT_EQ(cache.validCount(4, all), 3u);
    EXPECT_EQ(cache.ownedCount(4, all, 1), 2u);
    EXPECT_EQ(cache.ownedCount(4, all, 0), 1u);
    EXPECT_EQ(cache.ownedCount(4, 0b0110, 1), 2u);
    EXPECT_EQ(cache.ownedCount(4, 0b0010, 1), 1u);
}

TEST(SetAssocCache, LruValidWayRespectsMaskAndValidity)
{
    SetAssocCache cache(tinyGeometry());
    EXPECT_EQ(cache.lruValidWay(0, fullMask(4)), kNoWay);
    cache.insert(makeAddr(1, 0), 0, 1, 0, false);
    cache.insert(makeAddr(2, 0), 0, 3, 0, false);
    EXPECT_EQ(cache.lruValidWay(0, fullMask(4)), 1u);
    EXPECT_EQ(cache.lruValidWay(0, WayMask{1} << 3), 3u);
}

// ---------------------------------------------------------------------------
// Replacement policies

TEST(Replacement, RandomVictimUniformOverMask)
{
    SetAssocCache cache(tinyGeometry(), ReplPolicy::Random, 42);
    for (WayId w = 0; w < 4; ++w) {
        cache.insert(makeAddr(w + 1, 0), 0, w, 0, false);
    }
    std::map<WayId, int> counts;
    for (int i = 0; i < 4000; ++i) {
        ++counts[cache.victim(0, 0b1011)];
    }
    EXPECT_EQ(counts.count(2), 0u); // way 2 excluded by mask
    for (const WayId w : {0u, 1u, 3u}) {
        EXPECT_NEAR(counts[w], 4000 / 3, 150);
    }
}

TEST(Replacement, MruVictimIsNewest)
{
    SetAssocCache cache(tinyGeometry(), ReplPolicy::Mru, 1);
    for (WayId w = 0; w < 4; ++w) {
        cache.insert(makeAddr(w + 1, 0), 0, w, 0, false);
    }
    cache.touch(0, 1);
    EXPECT_EQ(cache.victim(0, fullMask(4)), 1u);
}

// ---------------------------------------------------------------------------
// LRU stack property (the foundation of utility monitoring)

TEST(SetAssocCache, LruStackPropertyHolds)
{
    // Replay one random reference stream against caches of increasing
    // associativity; hits must be monotone non-decreasing in ways.
    Rng rng(2024);
    std::vector<Addr> stream;
    for (int i = 0; i < 20000; ++i) {
        stream.push_back(makeAddr(rng.nextBelow(64), 0));
    }

    std::uint64_t prev_hits = 0;
    for (std::uint32_t ways = 1; ways <= 16; ways *= 2) {
        SetAssocCache cache(CacheGeometry{ways * 64ull, ways, 64});
        const WayMask all = fullMask(ways);
        std::uint64_t hits = 0;
        for (const Addr addr : stream) {
            const auto found = cache.lookup(addr, all);
            if (found.hit) {
                ++hits;
                cache.touch(0, found.way);
            } else {
                cache.insert(addr, 0, cache.victim(0, all), 0, false);
            }
        }
        EXPECT_GE(hits, prev_hits) << "ways=" << ways;
        prev_hits = hits;
    }
}

// ---------------------------------------------------------------------------
// L1

TEST(L1Cache, HitAfterFill)
{
    L1Cache l1(CacheGeometry{4096, 4, 64});
    EXPECT_FALSE(l1.access(0x1000, AccessType::Read).hit);
    EXPECT_TRUE(l1.access(0x1000, AccessType::Read).hit);
    EXPECT_EQ(l1.hits(), 1u);
    EXPECT_EQ(l1.misses(), 1u);
}

TEST(L1Cache, DirtyEvictionReportsWriteback)
{
    // Direct-mapped single-set L1: 1 set x 2 ways.
    L1Cache l1(CacheGeometry{2 * 64, 2, 64});
    l1.access(0x0000, AccessType::Write);
    l1.access(0x1000, AccessType::Read);
    const L1Result third = l1.access(0x2000, AccessType::Read);
    EXPECT_TRUE(third.writeback);
    EXPECT_EQ(third.writeback_addr, 0x0000u);
}

TEST(L1Cache, CleanEvictionHasNoWriteback)
{
    L1Cache l1(CacheGeometry{2 * 64, 2, 64});
    l1.access(0x0000, AccessType::Read);
    l1.access(0x1000, AccessType::Read);
    EXPECT_FALSE(l1.access(0x2000, AccessType::Read).writeback);
}
