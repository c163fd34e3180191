/**
 * @file
 * Tests for the non-cooperative LLC schemes: Unmanaged, FairShare,
 * UCP and DynamicCPE.
 */

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "llc/schemes.hpp"

using namespace coopsim;
using namespace coopsim::llc;

namespace
{

/** 16 sets x 4 ways x 64 B shared by 2 cores. */
LlcConfig
tinyConfig()
{
    LlcConfig config;
    config.geometry = {16 * 4 * 64, 4, 64};
    config.num_cores = 2;
    config.hit_latency = 10;
    config.umon_sample_period = 1;
    config.confirm_epochs = 1;
    return config;
}

/** Address in @p core's disjoint space hitting @p set with @p tag. */
Addr
makeAddr(CoreId core, Addr tag, SetId set)
{
    return (static_cast<Addr>(core + 1) << 40) | (tag << (6 + 4)) |
           (static_cast<Addr>(set) << 6);
}

} // namespace

// ---------------------------------------------------------------------------
// Unmanaged

TEST(UnmanagedLlc, ProbesEveryWay)
{
    mem::DramModel dram;
    UnmanagedLlc llc(tinyConfig(), dram);
    const LlcAccess res =
        llc.access(0, makeAddr(0, 1, 0), AccessType::Read, 0);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.ways_probed, 4u);
}

TEST(UnmanagedLlc, HitTimingUsesHitLatency)
{
    mem::DramModel dram;
    UnmanagedLlc llc(tinyConfig(), dram);
    llc.access(0, makeAddr(0, 1, 0), AccessType::Read, 0);
    const LlcAccess hit =
        llc.access(0, makeAddr(0, 1, 0), AccessType::Read, 1000);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.ready_at, 1010u);
}

TEST(UnmanagedLlc, MissWaitsForDram)
{
    mem::DramModel dram;
    UnmanagedLlc llc(tinyConfig(), dram);
    const LlcAccess miss =
        llc.access(0, makeAddr(0, 1, 0), AccessType::Read, 0);
    EXPECT_GE(miss.ready_at, dram.config().access_latency);
}

TEST(UnmanagedLlc, CoresEvictEachOther)
{
    mem::DramModel dram;
    UnmanagedLlc llc(tinyConfig(), dram);
    // Core 0 fills a whole set, then core 1 floods it.
    for (Addr t = 0; t < 4; ++t) {
        llc.access(0, makeAddr(0, t, 3), AccessType::Read, t);
    }
    for (Addr t = 0; t < 4; ++t) {
        llc.access(1, makeAddr(1, t, 3), AccessType::Read, 100 + t);
    }
    // Core 0's data is gone.
    const LlcAccess res =
        llc.access(0, makeAddr(0, 0, 3), AccessType::Read, 200);
    EXPECT_FALSE(res.hit);
}

TEST(UnmanagedLlc, DirtyEvictionWritesBack)
{
    mem::DramModel dram;
    UnmanagedLlc llc(tinyConfig(), dram);
    llc.access(0, makeAddr(0, 0, 3), AccessType::Write, 0);
    for (Addr t = 1; t <= 4; ++t) {
        llc.access(0, makeAddr(0, t, 3), AccessType::Read, t);
    }
    EXPECT_EQ(dram.stats().writebacks.value(), 1u);
    EXPECT_EQ(llc.coreStats(0).writebacks.value(), 1u);
}

// ---------------------------------------------------------------------------
// FairShare

TEST(FairShareLlc, EqualDisjointMasks)
{
    mem::DramModel dram;
    FairShareLlc llc(tinyConfig(), dram);
    EXPECT_EQ(llc.maskOf(0) & llc.maskOf(1), 0u);
    EXPECT_EQ(llc.maskOf(0) | llc.maskOf(1), 0xFu);
    EXPECT_EQ(llc.allocation(), (std::vector<std::uint32_t>{2, 2}));
}

TEST(FairShareLlc, ProbesOnlyOwnWays)
{
    mem::DramModel dram;
    FairShareLlc llc(tinyConfig(), dram);
    const LlcAccess res =
        llc.access(0, makeAddr(0, 1, 0), AccessType::Read, 0);
    EXPECT_EQ(res.ways_probed, 2u);
}

TEST(FairShareLlc, CoresAreIsolated)
{
    mem::DramModel dram;
    FairShareLlc llc(tinyConfig(), dram);
    llc.access(0, makeAddr(0, 7, 3), AccessType::Read, 0);
    // Core 1 floods the same set far beyond its share.
    for (Addr t = 0; t < 16; ++t) {
        llc.access(1, makeAddr(1, t, 3), AccessType::Read, 10 + t);
    }
    EXPECT_TRUE(
        llc.access(0, makeAddr(0, 7, 3), AccessType::Read, 100).hit);
}

TEST(FairShareLlc, NeverPowersDown)
{
    mem::DramModel dram;
    FairShareLlc llc(tinyConfig(), dram);
    llc.epoch(1000);
    EXPECT_DOUBLE_EQ(llc.poweredWays(), 4.0);
}

// ---------------------------------------------------------------------------
// UCP

TEST(UcpLlc, ProbesAllWaysDespitePartitioning)
{
    mem::DramModel dram;
    UcpLlc llc(tinyConfig(), dram);
    const LlcAccess res =
        llc.access(0, makeAddr(0, 1, 0), AccessType::Read, 0);
    EXPECT_EQ(res.ways_probed, 4u);
    EXPECT_DOUBLE_EQ(llc.poweredWays(), 4.0);
}

TEST(UcpLlc, RepartitionsTowardTheReuseHeavyCore)
{
    mem::DramModel dram;
    LlcConfig config = tinyConfig();
    UcpLlc llc(config, dram);

    // Core 0 re-uses a 3-deep working set per set (wants 3+ ways);
    // core 1 streams (wants 1).
    Cycle now = 0;
    for (int round = 0; round < 400; ++round) {
        for (SetId s = 0; s < 16; ++s) {
            for (Addr t = 0; t < 3; ++t) {
                llc.access(0, makeAddr(0, t, s), AccessType::Read, ++now);
            }
            ++now;
            llc.access(1, makeAddr(1, 1000 + now, s), AccessType::Read,
                       now);
        }
    }
    llc.epoch(++now);
    const auto alloc = llc.allocation();
    EXPECT_GE(alloc[0], 3u);
    EXPECT_LE(alloc[1], 1u);
}

TEST(UcpLlc, EnforcementIsLazyViaReplacement)
{
    mem::DramModel dram;
    UcpLlc llc(tinyConfig(), dram);
    // Same traffic as above to move the partition to (3, 1).
    Cycle now = 0;
    for (int round = 0; round < 400; ++round) {
        for (SetId s = 0; s < 16; ++s) {
            for (Addr t = 0; t < 3; ++t) {
                llc.access(0, makeAddr(0, t, s), AccessType::Read, ++now);
            }
            ++now;
            llc.access(1, makeAddr(1, 5000 + now, s), AccessType::Read,
                       now);
        }
    }
    llc.epoch(++now);

    // After the decision, core 0's misses take blocks from core 1
    // (over quota), not from core 0 itself.
    const auto &set_array = llc.array();
    for (int round = 0; round < 50; ++round) {
        for (Addr t = 0; t < 3; ++t) {
            llc.access(0, makeAddr(0, 100 + t, 2), AccessType::Read,
                       ++now);
        }
    }
    EXPECT_GE(set_array.ownedCount(2, cache::fullMask(4), 0), 3u);
}

// ---------------------------------------------------------------------------
// DynamicCPE

TEST(DynamicCpeLlc, ProbesOwnWaysOnly)
{
    mem::DramModel dram;
    DynamicCpeLlc llc(tinyConfig(), dram);
    const LlcAccess res =
        llc.access(0, makeAddr(0, 1, 0), AccessType::Read, 0);
    EXPECT_EQ(res.ways_probed, 2u);
}

TEST(DynamicCpeLlc, RepartitionFlushesAndStalls)
{
    mem::DramModel dram;
    LlcConfig config = tinyConfig();
    config.cpe_gate_threshold = 0.0;
    DynamicCpeLlc llc(config, dram);

    // Make core 0 want 3 ways; core 1 streams and WRITES so the way
    // it donates holds dirty lines for the flush to move.
    Cycle now = 0;
    for (int round = 0; round < 300; ++round) {
        for (SetId s = 0; s < 16; ++s) {
            for (Addr t = 0; t < 3; ++t) {
                llc.access(0, makeAddr(0, t, s), AccessType::Write,
                           ++now);
            }
            ++now;
            llc.access(1, makeAddr(1, 900 + now, s), AccessType::Write,
                       now);
        }
    }
    const Cycle decision = ++now;
    llc.epoch(decision);
    if (llc.allocation() != std::vector<std::uint32_t>({2, 2})) {
        // A repartition happened: ways moved, lines were flushed and
        // the LLC reports itself busy.
        EXPECT_GT(llc.flushedLines(), 0u);
        EXPECT_GT(llc.busyUntil(), decision);
        EXPECT_GT(dram.stats().flushes.value(), 0u);

        // A demand access during the stall is delayed past busyUntil.
        const LlcAccess res = llc.access(
            0, makeAddr(0, 0, 0), AccessType::Read, decision + 1);
        EXPECT_GE(res.ready_at, llc.busyUntil());
    } else {
        GTEST_SKIP() << "allocator kept the even split";
    }
}

TEST(DynamicCpeLlc, GatesUnallocatedWays)
{
    mem::DramModel dram;
    LlcConfig config = tinyConfig();
    config.cpe_gate_threshold = 0.5; // gate everything non-essential
    DynamicCpeLlc llc(config, dram);

    Cycle now = 0;
    for (int round = 0; round < 200; ++round) {
        for (SetId s = 0; s < 16; ++s) {
            llc.access(0, makeAddr(0, 0, s), AccessType::Read, ++now);
            llc.access(1, makeAddr(1, 0, s), AccessType::Read, ++now);
        }
    }
    llc.epoch(++now);
    // With a huge gate threshold both cores keep only the floor way.
    EXPECT_DOUBLE_EQ(llc.poweredWays(), 2.0);
    EXPECT_EQ(llc.allocation(), (std::vector<std::uint32_t>{1, 1}));
}

TEST(DynamicCpeLlc, StableDemandMeansNoReflush)
{
    mem::DramModel dram;
    DynamicCpeLlc llc(tinyConfig(), dram);
    Cycle now = 0;
    auto traffic = [&]() {
        for (int round = 0; round < 100; ++round) {
            for (SetId s = 0; s < 16; ++s) {
                llc.access(0, makeAddr(0, 0, s), AccessType::Read, ++now);
                llc.access(1, makeAddr(1, 0, s), AccessType::Read, ++now);
            }
        }
    };
    traffic();
    llc.epoch(++now);
    const std::uint64_t flushed_once = llc.flushedLines();
    traffic();
    llc.epoch(++now);
    traffic();
    llc.epoch(++now);
    EXPECT_EQ(llc.flushedLines(), flushed_once);
}

// ---------------------------------------------------------------------------
// Factory

TEST(LlcFactory, RegistryBuildsEverySchemeUnderItsPaperLegend)
{
    mem::DramModel dram;
    const struct
    {
        const char *key;
        Scheme scheme;
        const char *label;
    } builtins[] = {
        {"unmanaged", Scheme::Unmanaged, "Unmanaged"},
        {"fairshare", Scheme::FairShare, "FairShare"},
        {"ucp", Scheme::Ucp, "UCP"},
        {"cpe", Scheme::DynamicCpe, "DynamicCPE"},
        {"coop", Scheme::Cooperative, "Cooperative"},
    };
    for (const auto &b : builtins) {
        const auto llc = api::makeLlcByName(b.key, tinyConfig(), dram);
        ASSERT_NE(llc, nullptr) << b.key;
        EXPECT_EQ(llc->scheme(), b.scheme) << b.key;
        EXPECT_EQ(api::schemeLabel(b.key), b.label);
    }
}
