/**
 * @file
 * Unit and property tests for the allocation algorithms: look-ahead
 * (plain and thresholded, Algorithm 1), which decisions read their
 * demands (readsDemands) and the transition planner (Algorithm 2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "partition/lookahead.hpp"
#include "partition/partitioner.hpp"
#include "partition/transition_plan.hpp"

using namespace coopsim;
using namespace coopsim::partition;

namespace
{

/** Miss curve that saves @p per_way misses for each of the first
 *  @p useful ways, then flattens. */
AppDemand
kneeDemand(double total, double per_way, std::uint32_t useful,
           std::uint32_t ways)
{
    AppDemand d;
    d.accesses = total;
    d.miss_curve.resize(ways + 1);
    double misses = total;
    for (std::uint32_t w = 0; w <= ways; ++w) {
        d.miss_curve[w] = misses;
        if (w < useful) {
            misses -= per_way;
        }
    }
    return d;
}

std::uint32_t
sum(const std::vector<std::uint32_t> &v)
{
    return std::accumulate(v.begin(), v.end(), 0u);
}

} // namespace

// ---------------------------------------------------------------------------
// maxMarginalUtility

TEST(MaxMu, PicksBestAveragePerWay)
{
    // Curve: 100, 90, 50, 49 -> from 0, the best is 2 ways at
    // (100-50)/2 = 25/way (way 1 alone is only 10).
    AppDemand d;
    d.miss_curve = {100, 90, 50, 49};
    std::uint32_t req = 0;
    const double mu = maxMarginalUtility(d.miss_curve, 0, 3, req);
    EXPECT_DOUBLE_EQ(mu, 25.0);
    EXPECT_EQ(req, 2u);
}

TEST(MaxMu, RespectsBalanceBound)
{
    AppDemand d;
    d.miss_curve = {100, 90, 50, 49};
    std::uint32_t req = 0;
    const double mu = maxMarginalUtility(d.miss_curve, 0, 1, req);
    EXPECT_DOUBLE_EQ(mu, 10.0);
    EXPECT_EQ(req, 1u);
}

TEST(MaxMu, ZeroWhenFlat)
{
    AppDemand d;
    d.miss_curve = {10, 10, 10};
    std::uint32_t req = 7;
    EXPECT_DOUBLE_EQ(maxMarginalUtility(d.miss_curve, 0, 2, req), 0.0);
    EXPECT_EQ(req, 0u);
}

// ---------------------------------------------------------------------------
// lookaheadPartition

TEST(Lookahead, ZeroThresholdAllocatesEverythingUseful)
{
    // Two apps both wanting 4 ways on an 8-way cache: UCP splits 4/4.
    std::vector<AppDemand> demands = {kneeDemand(1000, 100, 4, 8),
                                      kneeDemand(1000, 100, 4, 8)};
    LookaheadConfig config;
    config.threshold = 0.0;
    const Allocation alloc = lookaheadPartition(demands, 8, config);
    EXPECT_EQ(alloc.ways[0], 4u);
    EXPECT_EQ(alloc.ways[1], 4u);
    EXPECT_EQ(alloc.unallocated, 0u);
}

TEST(Lookahead, GreedyFavoursTheHungrierApp)
{
    // App 0 saves 200/way for 6 ways; app 1 saves 50/way for 6 ways.
    std::vector<AppDemand> demands = {kneeDemand(2000, 200, 6, 8),
                                      kneeDemand(2000, 50, 6, 8)};
    LookaheadConfig config;
    const Allocation alloc = lookaheadPartition(demands, 8, config);
    EXPECT_EQ(alloc.ways[0], 6u);
    EXPECT_EQ(alloc.ways[1], 2u);
}

TEST(Lookahead, ThresholdLeavesTailWaysUnallocated)
{
    // Per-way utility = 30/1000 = 3% of accesses: below T = 0.05.
    std::vector<AppDemand> demands = {kneeDemand(1000, 30, 6, 8),
                                      kneeDemand(1000, 30, 6, 8)};
    LookaheadConfig config;
    config.threshold = 0.05;
    const Allocation alloc = lookaheadPartition(demands, 8, config);
    EXPECT_EQ(alloc.ways[0], 1u); // the floor only
    EXPECT_EQ(alloc.ways[1], 1u);
    EXPECT_EQ(alloc.unallocated, 6u);
}

TEST(Lookahead, ThresholdPassesHighUtilityWays)
{
    // 80/1000 = 8% per way clears T = 0.05 for 3 extra ways.
    std::vector<AppDemand> demands = {kneeDemand(1000, 80, 4, 8),
                                      kneeDemand(1000, 10, 4, 8)};
    LookaheadConfig config;
    config.threshold = 0.05;
    const Allocation alloc = lookaheadPartition(demands, 8, config);
    EXPECT_EQ(alloc.ways[0], 4u);
    EXPECT_EQ(alloc.ways[1], 1u);
    EXPECT_EQ(alloc.unallocated, 3u);
}

TEST(Lookahead, ThresholdOneAllocatesOnlyTheFloor)
{
    std::vector<AppDemand> demands = {kneeDemand(1000, 400, 2, 8),
                                      kneeDemand(1000, 400, 2, 8)};
    LookaheadConfig config;
    config.threshold = 1.0;
    const Allocation alloc = lookaheadPartition(demands, 8, config);
    EXPECT_EQ(alloc.ways[0], kMinWaysPerApp);
    EXPECT_EQ(alloc.ways[1], kMinWaysPerApp);
    EXPECT_EQ(alloc.unallocated, 6u);
}

TEST(Lookahead, PaperLiteralModeTerminatesAndAllocates)
{
    std::vector<AppDemand> demands = {kneeDemand(1000, 100, 4, 8),
                                      kneeDemand(1000, 100, 4, 8)};
    LookaheadConfig config;
    config.mode = ThresholdMode::PaperLiteral;
    config.threshold = 0.0;
    const Allocation alloc = lookaheadPartition(demands, 8, config);
    // The literal rule self-unblocks one iteration late but must still
    // hand out every useful way.
    EXPECT_EQ(sum(alloc.ways), 8u);
}

/** Properties over a sweep of thresholds. */
class LookaheadThresholdTest : public ::testing::TestWithParam<double>
{
};

TEST_P(LookaheadThresholdTest, AllocationsAreFeasible)
{
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<AppDemand> demands;
        const auto napps = 2 + rng.nextBelow(3);
        for (std::uint64_t a = 0; a < napps; ++a) {
            // Random monotone curve.
            AppDemand d;
            d.accesses = 1000.0;
            double misses = 1000.0;
            d.miss_curve.push_back(misses);
            for (int w = 0; w < 16; ++w) {
                misses -= static_cast<double>(rng.nextBelow(80));
                misses = std::max(misses, 0.0);
                d.miss_curve.push_back(misses);
            }
            demands.push_back(std::move(d));
        }
        LookaheadConfig config;
        config.threshold = GetParam();
        const Allocation alloc = lookaheadPartition(demands, 16, config);
        EXPECT_EQ(alloc.ways.size(), napps);
        EXPECT_EQ(sum(alloc.ways) + alloc.unallocated, 16u);
        for (const std::uint32_t w : alloc.ways) {
            EXPECT_GE(w, kMinWaysPerApp);
        }
    }
}

TEST_P(LookaheadThresholdTest, HigherThresholdNeverAllocatesMore)
{
    // Uncontended appetites (4+4+4 of 16 ways) so total allocation
    // is monotone in T (under contention it need not be).
    std::vector<AppDemand> demands = {kneeDemand(1000, 120, 4, 16),
                                      kneeDemand(1000, 60, 4, 16),
                                      kneeDemand(1000, 20, 4, 16)};
    LookaheadConfig low;
    low.threshold = 0.0;
    LookaheadConfig high;
    high.threshold = GetParam();
    const Allocation a_low = lookaheadPartition(demands, 16, low);
    const Allocation a_high = lookaheadPartition(demands, 16, high);
    EXPECT_LE(sum(a_high.ways), sum(a_low.ways));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, LookaheadThresholdTest,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.2));

// ---------------------------------------------------------------------------
// readsDemands

TEST(ReadsDemands, OnlyEqualShareAndAFullFloorIgnoreDemands)
{
    for (const Partitioner p :
         {Partitioner::Lookahead, Partitioner::GreedyUtility}) {
        EXPECT_FALSE(readsDemands(p, 4, 4 * kMinWaysPerApp));
        EXPECT_TRUE(readsDemands(p, 4, 4 * kMinWaysPerApp + 1));
        EXPECT_TRUE(readsDemands(p, 32, 64));
    }
    EXPECT_FALSE(readsDemands(Partitioner::EqualShare, 4, 4));
    EXPECT_FALSE(readsDemands(Partitioner::EqualShare, 32, 64));
}

TEST(ReadsDemands, WhereFalseTheCurvesCannotChangeTheDecision)
{
    // Random monotone curves and access counts over apps <= ways <= 64,
    // a quarter of the cases at ways == apps. Where readsDemands is
    // false, every partitioner, threshold and mode must decide exactly
    // what it decides for flat curves with zero accesses; where it is
    // true, the curves must change some decision, so the predicate is
    // not vacuously false.
    const Partitioner partitioners[] = {Partitioner::Lookahead,
                                        Partitioner::GreedyUtility,
                                        Partitioner::EqualShare};
    const double thresholds[] = {0.0, 0.01, 0.05, 0.2, 1.0};
    std::uint32_t skipped = 0;
    std::uint32_t changed[3] = {0, 0, 0};
    Rng rng(28);
    for (int trial = 0; trial < 150; ++trial) {
        const auto apps = static_cast<std::uint32_t>(1 + rng.nextBelow(64));
        const auto ways = static_cast<std::uint32_t>(
            rng.nextBelow(4) == 0 ? apps
                                  : apps + rng.nextBelow(65 - apps));
        std::vector<AppDemand> demands(apps);
        for (AppDemand &d : demands) {
            double misses = static_cast<double>(rng.nextBelow(100000));
            d.accesses = misses + static_cast<double>(rng.nextBelow(1000));
            d.miss_curve.push_back(misses);
            for (std::uint32_t w = 0; w < ways; ++w) {
                misses -= std::min(
                    misses, static_cast<double>(rng.nextBelow(8000)));
                d.miss_curve.push_back(misses);
            }
        }
        AppDemand flat;
        flat.miss_curve.assign(ways + 1, 0.0);
        const std::vector<AppDemand> flats(apps, flat);

        for (std::size_t p = 0; p < 3; ++p) {
            const bool reads = readsDemands(partitioners[p], apps, ways);
            for (const ThresholdMode mode :
                 {ThresholdMode::MissRatio, ThresholdMode::PaperLiteral}) {
                for (const double threshold : thresholds) {
                    LookaheadConfig config;
                    config.threshold = threshold;
                    config.mode = mode;
                    const Allocation measured = decidePartition(
                        partitioners[p], demands, ways, config);
                    const Allocation blind = decidePartition(
                        partitioners[p], flats, ways, config);
                    const bool same =
                        measured.ways == blind.ways &&
                        measured.unallocated == blind.unallocated;
                    if (!reads) {
                        ++skipped;
                        EXPECT_TRUE(same)
                            << "partitioner " << p << " apps " << apps
                            << " ways " << ways << " T " << threshold;
                    } else if (!same) {
                        ++changed[p];
                    }
                }
            }
        }
    }
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(changed[0], 0u); // lookahead
    EXPECT_GT(changed[1], 0u); // greedy
}

// ---------------------------------------------------------------------------
// planTransition (Algorithm 2)

namespace
{

/** Validates basic conservation for a plan. */
void
checkPlanWellFormed(const TransitionPlan &plan,
                    const std::vector<std::vector<WayId>> &owned,
                    const std::vector<WayId> &off,
                    const std::vector<std::uint32_t> &target)
{
    // No way appears twice across the whole plan.
    std::set<WayId> used;
    for (const auto &t : plan.transfers) {
        EXPECT_TRUE(used.insert(t.way).second);
    }
    for (const auto &d : plan.drains) {
        EXPECT_TRUE(used.insert(d.way).second);
    }
    for (const auto &p : plan.power_ons) {
        EXPECT_TRUE(used.insert(p.way).second);
    }

    // Transfers and drains come from the donor's pool; power-ons from
    // the off pool.
    auto in = [](const std::vector<WayId> &pool, WayId w) {
        return std::find(pool.begin(), pool.end(), w) != pool.end();
    };
    for (const auto &t : plan.transfers) {
        EXPECT_TRUE(in(owned[t.donor], t.way));
        EXPECT_NE(t.donor, t.recipient);
    }
    for (const auto &d : plan.drains) {
        EXPECT_TRUE(in(owned[d.donor], d.way));
    }
    for (const auto &p : plan.power_ons) {
        EXPECT_TRUE(in(off, p.way));
    }

    // Net effect realises the target.
    std::vector<std::int64_t> counts(owned.size());
    for (std::size_t c = 0; c < owned.size(); ++c) {
        counts[c] = static_cast<std::int64_t>(owned[c].size());
    }
    for (const auto &t : plan.transfers) {
        --counts[t.donor];
        ++counts[t.recipient];
    }
    for (const auto &d : plan.drains) {
        --counts[d.donor];
    }
    for (const auto &p : plan.power_ons) {
        ++counts[p.recipient];
    }
    for (std::size_t c = 0; c < target.size(); ++c) {
        EXPECT_EQ(counts[c], static_cast<std::int64_t>(target[c]));
    }
}

} // namespace

TEST(TransitionPlan, NoChangeYieldsEmptyPlan)
{
    Rng rng(1);
    const std::vector<std::vector<WayId>> owned = {{0, 1}, {2, 3}};
    const TransitionPlan plan =
        planTransition(owned, {}, {2, 2}, rng);
    EXPECT_TRUE(plan.empty());
}

TEST(TransitionPlan, SimpleTransferBetweenCores)
{
    Rng rng(2);
    const std::vector<std::vector<WayId>> owned = {{0, 1, 2}, {3}};
    const TransitionPlan plan =
        planTransition(owned, {}, {2, 2}, rng);
    ASSERT_EQ(plan.transfers.size(), 1u);
    EXPECT_EQ(plan.transfers[0].donor, 0u);
    EXPECT_EQ(plan.transfers[0].recipient, 1u);
    EXPECT_TRUE(plan.drains.empty());
    EXPECT_TRUE(plan.power_ons.empty());
    checkPlanWellFormed(plan, owned, {}, {2, 2});
}

TEST(TransitionPlan, SurplusDrainsToOff)
{
    Rng rng(3);
    const std::vector<std::vector<WayId>> owned = {{0, 1, 2, 3}, {4, 5}};
    const TransitionPlan plan =
        planTransition(owned, {}, {2, 2}, rng);
    EXPECT_TRUE(plan.transfers.empty());
    EXPECT_EQ(plan.drains.size(), 2u);
    checkPlanWellFormed(plan, owned, {}, {2, 2});
}

TEST(TransitionPlan, DemandServedFromOffPool)
{
    Rng rng(4);
    const std::vector<std::vector<WayId>> owned = {{0}, {1}};
    const std::vector<WayId> off = {2, 3};
    const TransitionPlan plan =
        planTransition(owned, off, {2, 2}, rng);
    EXPECT_TRUE(plan.transfers.empty());
    EXPECT_EQ(plan.power_ons.size(), 2u);
    checkPlanWellFormed(plan, owned, off, {2, 2});
}

TEST(TransitionPlan, DonorsPreferredOverOffPool)
{
    Rng rng(5);
    // Core 0 sheds 1, core 1 gains 1: Algorithm 2 pairs them even
    // though an off way exists.
    const std::vector<std::vector<WayId>> owned = {{0, 1, 2}, {3}};
    const std::vector<WayId> off = {4};
    const TransitionPlan plan =
        planTransition(owned, off, {2, 2}, rng);
    EXPECT_EQ(plan.transfers.size(), 1u);
    EXPECT_TRUE(plan.power_ons.empty());
    checkPlanWellFormed(plan, owned, off, {2, 2});
}

TEST(TransitionPlan, RandomisedPlansAreAlwaysWellFormed)
{
    Rng rng(2025);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint32_t cores =
            2 + static_cast<std::uint32_t>(rng.nextBelow(3));
        const std::uint32_t ways =
            cores + static_cast<std::uint32_t>(rng.nextBelow(13));

        // Random current ownership.
        std::vector<std::vector<WayId>> owned(cores);
        std::vector<WayId> off;
        for (WayId w = 0; w < ways; ++w) {
            const auto pick = rng.nextBelow(cores + 1);
            if (pick == cores) {
                off.push_back(w);
            } else {
                owned[pick].push_back(w);
            }
        }

        // Random feasible target with the same or smaller total.
        std::vector<std::uint32_t> target(cores, 0);
        std::uint32_t budget = ways;
        for (std::uint32_t c = 0; c < cores; ++c) {
            target[c] =
                static_cast<std::uint32_t>(rng.nextBelow(budget / 2 + 1));
            budget -= target[c];
        }

        const TransitionPlan plan =
            planTransition(owned, off, target, rng);
        checkPlanWellFormed(plan, owned, off, target);
    }
}
