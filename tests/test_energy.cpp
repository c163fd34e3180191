/**
 * @file
 * Unit tests for the CACTI-like energy model, the accounting layer and
 * the drowsy-gating extension.
 */

#include <gtest/gtest.h>

#include "energy/accounting.hpp"
#include "energy/cacti_model.hpp"
#include "llc/schemes.hpp"

using namespace coopsim;
using namespace coopsim::energy;

namespace
{

CacheOrg
twoMb()
{
    return CacheOrg{2ull << 20, 8, 64, false};
}

} // namespace

TEST(CactiModel, ProfilesArePositive)
{
    const CacheEnergyProfile p = deriveProfile(twoMb());
    EXPECT_GT(p.tag_probe_nj, 0.0);
    EXPECT_GT(p.data_read_nj, 0.0);
    EXPECT_GT(p.data_write_nj, p.data_read_nj);
    EXPECT_GT(p.way_leak_nj_per_cycle, 0.0);
    EXPECT_DOUBLE_EQ(p.monitor_access_nj, 0.0);
    EXPECT_DOUBLE_EQ(p.monitor_leak_nj_per_cycle, 0.0);
}

TEST(CactiModel, PartitionHardwareAddsOverheads)
{
    CacheOrg org = twoMb();
    org.has_partition_hw = true;
    const CacheEnergyProfile p = deriveProfile(org);
    EXPECT_GT(p.monitor_access_nj, 0.0);
    EXPECT_GT(p.monitor_leak_nj_per_cycle, 0.0);
    // Overheads are small relative to the array itself.
    EXPECT_LT(p.monitor_access_nj, p.tag_probe_nj);
    EXPECT_LT(p.monitor_leak_nj_per_cycle, p.way_leak_nj_per_cycle);
}

TEST(CactiModel, LeakageScalesWithWaySize)
{
    const CacheEnergyProfile small = deriveProfile(twoMb());
    CacheOrg big = twoMb();
    big.size_bytes = 4ull << 20;
    big.ways = 16;
    // Same bytes per way (sets halve x ways double keeps way size)?
    // 4MB/16way = 256kB per way vs 2MB/8way = 256kB per way: equal.
    const CacheEnergyProfile same_way = deriveProfile(big);
    EXPECT_NEAR(same_way.way_leak_nj_per_cycle,
                small.way_leak_nj_per_cycle,
                0.01 * small.way_leak_nj_per_cycle);

    CacheOrg bigger_way = twoMb();
    bigger_way.size_bytes = 4ull << 20; // 8 ways of 512kB
    const CacheEnergyProfile p2 = deriveProfile(bigger_way);
    EXPECT_GT(p2.way_leak_nj_per_cycle, small.way_leak_nj_per_cycle);
}

TEST(CactiModel, TagEnergyGrowsWithSets)
{
    const CacheEnergyProfile small = deriveProfile(twoMb());
    CacheOrg big = twoMb();
    big.size_bytes = 8ull << 20; // 4x the sets
    const CacheEnergyProfile p = deriveProfile(big);
    EXPECT_GT(p.tag_probe_nj, small.tag_probe_nj);
}

TEST(CactiModel, DataEnergyScalesWithLineSize)
{
    CacheOrg wide = twoMb();
    wide.block_bytes = 128;
    EXPECT_NEAR(deriveProfile(wide).data_read_nj,
                2.0 * deriveProfile(twoMb()).data_read_nj, 1e-9);
}

// ---------------------------------------------------------------------------
// EnergyAccounting

namespace
{

CacheEnergyProfile
unitProfile()
{
    CacheEnergyProfile p;
    p.tag_probe_nj = 1.0;
    p.data_read_nj = 10.0;
    p.data_write_nj = 20.0;
    p.way_leak_nj_per_cycle = 0.5;
    p.monitor_access_nj = 0.25;
    p.monitor_leak_nj_per_cycle = 0.125;
    return p;
}

} // namespace

TEST(Accounting, SplitsComponents)
{
    EnergyAccounting meter(unitProfile(), 8);
    meter.onAccess(4, true, false, true);  // read hit
    meter.onAccess(2, false, true, false); // fill
    const EnergyTotals &t = meter.totals();
    EXPECT_DOUBLE_EQ(t.tag_nj, 6.0);
    EXPECT_DOUBLE_EQ(t.data_nj, 30.0);
    EXPECT_DOUBLE_EQ(t.monitor_nj, 0.25);
    EXPECT_DOUBLE_EQ(t.drain_nj, 0.0);
    EXPECT_DOUBLE_EQ(t.dynamicPaper(), 6.25);
    EXPECT_DOUBLE_EQ(t.dynamicTotal(), 36.25);
}

TEST(Accounting, DrainChargesDataMovement)
{
    EnergyAccounting meter(unitProfile(), 8);
    meter.onBlockDrain();
    meter.onBlockDrain();
    EXPECT_DOUBLE_EQ(meter.totals().drain_nj, 20.0);
    EXPECT_DOUBLE_EQ(meter.totals().dynamicPaper(), 20.0);
}

TEST(Accounting, LeakageIntegratesPoweredWays)
{
    EnergyAccounting meter(unitProfile(), 8);
    meter.integrate(100, 8.0);
    // 100 cycles * (8 * 0.5 + 0.125).
    EXPECT_DOUBLE_EQ(meter.totals().static_nj, 100 * 4.125);
    meter.integrate(200, 4.0);
    EXPECT_DOUBLE_EQ(meter.totals().static_nj,
                     100 * 4.125 + 100 * 2.125);
}

TEST(Accounting, IntegrateIsIdempotentAtSameTime)
{
    EnergyAccounting meter(unitProfile(), 8);
    meter.integrate(100, 8.0);
    const double once = meter.totals().static_nj;
    meter.integrate(100, 8.0);
    EXPECT_DOUBLE_EQ(meter.totals().static_nj, once);
}

TEST(Accounting, FewerPoweredWaysLeakLess)
{
    EnergyAccounting a(unitProfile(), 8);
    EnergyAccounting b(unitProfile(), 8);
    a.integrate(1000, 8.0);
    b.integrate(1000, 5.0);
    EXPECT_LT(b.totals().static_nj, a.totals().static_nj);
}

TEST(Accounting, AvgWaysProbedTracksAccesses)
{
    EnergyAccounting meter(unitProfile(), 8);
    meter.onAccess(8, true, false, false);
    meter.onAccess(2, true, false, false);
    meter.onAccess(2, true, false, false);
    EXPECT_DOUBLE_EQ(meter.avgWaysProbed(), 4.0);
    EXPECT_EQ(meter.accesses(), 3u);
}

TEST(Accounting, ResetTotalsRestartsFromNow)
{
    EnergyAccounting meter(unitProfile(), 8);
    meter.onAccess(8, true, false, false);
    meter.integrate(100, 8.0);
    meter.resetTotals(100);
    EXPECT_DOUBLE_EQ(meter.totals().dynamicTotal(), 0.0);
    EXPECT_DOUBLE_EQ(meter.totals().static_nj, 0.0);
    meter.integrate(200, 8.0);
    EXPECT_DOUBLE_EQ(meter.totals().static_nj, 100 * 4.125);
}

TEST(Accounting, MoreWaysProbedCostsMoreDynamic)
{
    EnergyAccounting a(unitProfile(), 8);
    EnergyAccounting b(unitProfile(), 8);
    for (int i = 0; i < 100; ++i) {
        a.onAccess(8, true, false, false);
        b.onAccess(3, true, false, false);
    }
    EXPECT_GT(a.totals().dynamicPaper(), b.totals().dynamicPaper());
}

// ---------------------------------------------------------------------------
// Drowsy gating extension

namespace
{

llc::LlcConfig
drowsyConfig()
{
    llc::LlcConfig config;
    config.geometry = {8 * 4 * 64, 4, 64};
    config.num_cores = 2;
    config.hit_latency = 10;
    config.umon_sample_period = 1;
    config.confirm_epochs = 1;
    config.gating = llc::GatingMode::Drowsy;
    config.stale_transition_cycles = 1'000'000'000;
    return config;
}

Addr
makeAddr(CoreId core, Addr tag, SetId set)
{
    return (static_cast<Addr>(core + 1) << 40) | (tag << (6 + 3)) |
           (static_cast<Addr>(set) << 6);
}

/** Both cores keep one hot block per set: each wants only 1 way. */
void
narrowTraffic(llc::CooperativeLlc &llc, Cycle &now, int rounds)
{
    for (int round = 0; round < rounds; ++round) {
        for (SetId s = 0; s < 8; ++s) {
            llc.access(0, makeAddr(0, 0, s), AccessType::Read, ++now);
            llc.access(1, makeAddr(1, 0, s), AccessType::Read, ++now);
        }
    }
}

} // namespace

TEST(DrowsyGating, DarkWaysStillLeakFractionally)
{
    mem::DramModel dram;
    llc::CooperativeLlc coop(drowsyConfig(), dram);
    Cycle now = 0;
    narrowTraffic(coop, now, 400);
    coop.epoch(++now);
    narrowTraffic(coop, now, 100); // complete the drains

    const double powered = coop.poweredWays();
    // 2 ways on + 2 drowsy at 25%: 2.5 effective ways.
    EXPECT_LT(powered, 4.0);
    EXPECT_GT(powered, 2.0);
    coop.checkInvariants();
}

TEST(DrowsyGating, GatedVddLeaksLess)
{
    auto run = [](llc::GatingMode mode) {
        llc::LlcConfig config = drowsyConfig();
        config.gating = mode;
        mem::DramModel dram;
        llc::CooperativeLlc coop(config, dram);
        Cycle now = 0;
        narrowTraffic(coop, now, 400);
        coop.epoch(++now);
        narrowTraffic(coop, now, 100);
        return coop.poweredWays();
    };
    EXPECT_LT(run(llc::GatingMode::GatedVdd),
              run(llc::GatingMode::Drowsy));
}

TEST(DrowsyGating, CleanLinesSurviveADrain)
{
    mem::DramModel dram;
    llc::CooperativeLlc coop(drowsyConfig(), dram);
    Cycle now = 0;

    // Core 0 builds a 3-deep working set, then narrows to 1 block so
    // its extra ways drain off with clean lines still inside.
    for (int round = 0; round < 400; ++round) {
        for (SetId s = 0; s < 8; ++s) {
            for (Addr t = 0; t < 3; ++t) {
                coop.access(0, makeAddr(0, t, s), AccessType::Read,
                            ++now);
            }
            coop.access(1, makeAddr(1, 0, s), AccessType::Read, ++now);
        }
    }
    // Several narrow epochs let the decayed utility curves converge on
    // the 1-way demand and the drains complete.
    for (int e = 0; e < 6; ++e) {
        coop.epoch(++now);
        narrowTraffic(coop, now, 300);
    }

    // Some way must be dark by now; drowsy mode may keep valid
    // (clean) lines inside it — the invariant checker accepts them.
    coop.checkInvariants();
    EXPECT_LT(coop.permissions().poweredCount(), 4u);
    // No dirty orphans anywhere.
    for (WayId w = 0; w < 4; ++w) {
        for (SetId s = 0; s < 8; ++s) {
            const auto &blk = coop.array().block(s, w);
            if (blk.valid && !coop.permissions().powered(w)) {
                EXPECT_FALSE(blk.dirty);
            }
        }
    }
}
