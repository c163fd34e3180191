/**
 * @file
 * Unit tests for the utility monitors (UMON).
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "umon/umon.hpp"

namespace coopsim::umon
{

struct UmonTestAccess
{
    static void
    setCounters(UtilityMonitor &umon, const std::vector<std::uint64_t> &hits,
                std::uint64_t misses)
    {
        umon.position_hits_ = hits;
        umon.misses_ = misses;
    }
};

} // namespace coopsim::umon

using namespace coopsim;
using umon::UmonConfig;
using umon::UmonTestAccess;
using umon::UtilityMonitor;

namespace
{

std::vector<double>
curveOf(const UtilityMonitor &umon)
{
    std::vector<double> curve;
    umon.missCurve(curve);
    return curve;
}

/** Reference curve: the suffix sums accumulated in double. */
std::vector<double>
doubleAccumulatedCurve(const UtilityMonitor &umon)
{
    const std::vector<std::uint64_t> &hits = umon.positionHits();
    const double scale = static_cast<double>(umon.config().sample_period);
    std::vector<double> curve(hits.size() + 1, 0.0);
    double tail = static_cast<double>(umon.missCount());
    curve[hits.size()] = tail * scale;
    for (std::size_t w = hits.size(); w-- > 0;) {
        tail += static_cast<double>(hits[w]);
        curve[w] = tail * scale;
    }
    return curve;
}

void
expectBitIdentical(const std::vector<double> &got,
                   const std::vector<double> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t w = 0; w < want.size(); ++w) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[w]),
                  std::bit_cast<std::uint64_t>(want[w]))
            << what << ": curve[" << w << "] = " << got[w] << ", want "
            << want[w];
    }
}

UmonConfig
fullSampling()
{
    UmonConfig config;
    config.llc_sets = 16;
    config.llc_ways = 4;
    config.block_bytes = 64;
    config.sample_period = 1;
    return config;
}

Addr
makeAddr(Addr tag, SetId set, std::uint32_t set_bits = 4)
{
    return (tag << (6 + set_bits)) | (static_cast<Addr>(set) << 6);
}

/**
 * Replays a seeded stream through a monitor of @p ways ways that
 * samples one set in @p sample_period, and through explicit LRU lists
 * of every associativity over the sampled sets. By the LRU stack
 * property (Mattson et al.) the curve must equal the lists' misses
 * scaled by the sampling period, exactly. Each sampled set sees about
 * 2.5x its associativity in distinct tags, so full sets evict.
 */
void
expectCurveMatchesLruLists(std::uint32_t ways, std::uint32_t sample_period)
{
    const std::uint32_t sets = 16 * sample_period;
    UmonConfig config;
    config.llc_sets = sets;
    config.llc_ways = ways;
    config.block_bytes = 64;
    config.sample_period = sample_period;
    UtilityMonitor umon(config);

    Rng rng(7);
    std::vector<Addr> stream;
    for (std::uint32_t i = 0; i < 8000 * sample_period; ++i) {
        const Addr tag = rng.nextBelow(ways * 5 / 2);
        const auto set = static_cast<SetId>(rng.nextBelow(sets));
        stream.push_back(makeAddr(tag, set, floorLog2(sets)));
    }
    for (const Addr a : stream) {
        umon.access(a);
    }
    const std::vector<double> curve = curveOf(umon);

    for (std::uint32_t w = 1; w <= ways; ++w) {
        // Simple explicit per-set LRU model.
        std::vector<std::vector<Addr>> lists(sets);
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        for (const Addr a : stream) {
            const auto set = static_cast<SetId>((a >> 6) & (sets - 1));
            if (set % sample_period != 0) {
                continue;
            }
            auto &list = lists[set];
            bool hit = false;
            for (std::size_t i = 0; i < list.size(); ++i) {
                if (list[i] == a) {
                    list.erase(list.begin() +
                               static_cast<std::ptrdiff_t>(i));
                    hit = true;
                    break;
                }
            }
            if (!hit) {
                ++misses;
            }
            list.insert(list.begin(), a);
            if (list.size() > w) {
                list.pop_back();
                ++evictions;
            }
        }
        EXPECT_DOUBLE_EQ(curve[w],
                         static_cast<double>(misses * sample_period))
            << "ways=" << ways << " sample_period=" << sample_period
            << " allocation=" << w;
        if (w == ways) {
            EXPECT_GT(evictions, 0u)
                << "ways=" << ways << ": no sampled set overflowed";
        }
    }
}

} // namespace

TEST(Umon, FirstTouchesAreMisses)
{
    UtilityMonitor umon(fullSampling());
    for (int i = 0; i < 4; ++i) {
        umon.access(makeAddr(i, 0));
    }
    EXPECT_EQ(umon.missCount(), 4u);
    EXPECT_EQ(umon.accessCount(), 4u);
}

TEST(Umon, RecencyPositionsAreExact)
{
    UtilityMonitor umon(fullSampling());
    // Touch A, B, C then re-touch A: A is at stack position 2.
    umon.access(makeAddr(1, 0));
    umon.access(makeAddr(2, 0));
    umon.access(makeAddr(3, 0));
    umon.access(makeAddr(1, 0));
    const auto &hits = umon.positionHits();
    EXPECT_EQ(hits[2], 1u);
    EXPECT_EQ(hits[0], 0u);
    EXPECT_EQ(hits[1], 0u);

    // Re-touch A immediately: now position 0.
    umon.access(makeAddr(1, 0));
    EXPECT_EQ(umon.positionHits()[0], 1u);
}

TEST(Umon, MissCurveEndpoints)
{
    UtilityMonitor umon(fullSampling());
    umon.access(makeAddr(1, 0));
    umon.access(makeAddr(1, 0)); // position-0 hit
    umon.access(makeAddr(2, 0));

    const std::vector<double> curve = curveOf(umon);
    ASSERT_EQ(curve.size(), 5u);
    // With zero ways every reference misses.
    EXPECT_DOUBLE_EQ(curve[0], 3.0);
    // With full associativity only the true misses remain.
    EXPECT_DOUBLE_EQ(curve[4], 2.0);
}

TEST(Umon, MissCurveIsMonotoneNonIncreasing)
{
    UtilityMonitor umon(fullSampling());
    Rng rng(5);
    for (int i = 0; i < 5000; ++i) {
        umon.access(makeAddr(rng.nextBelow(12), rng.nextBelow(16)));
    }
    const std::vector<double> curve = curveOf(umon);
    for (std::size_t w = 1; w < curve.size(); ++w) {
        EXPECT_LE(curve[w], curve[w - 1]);
    }
}

TEST(Umon, MissCurveMatchesDoubleAccumulationBitForBit)
{
    UmonConfig config = fullSampling();
    config.llc_sets = 64;
    config.sample_period = 32;
    UtilityMonitor umon(config);

    // Counters up to 2^52 with odd low bits, whose total stays below
    // the asserted 2^53: every suffix sum uses the full mantissa.
    const std::uint64_t two52 = std::uint64_t{1} << 52;
    UmonTestAccess::setCounters(
        umon, {two52 - 1, 12345, (std::uint64_t{1} << 40) + 7, 3},
        (std::uint64_t{1} << 51) + 9);
    expectBitIdentical(curveOf(umon), doubleAccumulatedCurve(umon),
                       "counters near 2^52");
    umon.decay();
    expectBitIdentical(curveOf(umon), doubleAccumulatedCurve(umon),
                       "counters near 2^52 after decay");

    // And counters a simulated run produces, across two decays.
    umon.reset();
    Rng rng(3);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 20000; ++i) {
            umon.access(makeAddr(rng.nextBelow(9), rng.nextBelow(64), 6));
        }
        expectBitIdentical(curveOf(umon), doubleAccumulatedCurve(umon),
                           "simulated counters");
        umon.decay();
    }
}

TEST(Umon, MissCurveResizesAReusedBuffer)
{
    UtilityMonitor umon(fullSampling());
    umon.access(makeAddr(1, 0));
    umon.access(makeAddr(1, 0));
    const std::vector<double> fresh = curveOf(umon);
    ASSERT_EQ(fresh.size(), 5u);

    // Too short, too long, and the right size holding stale values:
    // each comes back ways+1 long and equal to a fresh curve.
    for (std::vector<double> buffer :
         {std::vector<double>(2, -1.0), std::vector<double>(100, -1.0),
          std::vector<double>(5, -1.0)}) {
        umon.missCurve(buffer);
        EXPECT_EQ(buffer, fresh);
    }
}

TEST(Umon, CurveMatchesIdealLruSimulation)
{
    // The unit geometry, and the LLC's: a 64-deep stack sampling one
    // set in 32, through the shifted sampled-set index.
    expectCurveMatchesLruLists(4, 1);
    expectCurveMatchesLruLists(64, 32);
}

TEST(Umon, SamplingScalesCurveBack)
{
    UmonConfig config = fullSampling();
    config.llc_sets = 64;
    config.sample_period = 4;
    UtilityMonitor umon(config);

    // Uniform traffic over all sets: the scaled miss estimate should
    // be close to the true count.
    Rng rng(11);
    std::uint64_t true_misses_proxy = 0;
    for (int i = 0; i < 40000; ++i) {
        const Addr a = makeAddr(rng.nextBelow(200), rng.nextBelow(64));
        umon.access(a);
        ++true_misses_proxy;
    }
    // Nearly every access misses (200 tags over 64x4 frames per set).
    const double estimated = curveOf(umon)[4];
    EXPECT_NEAR(estimated, static_cast<double>(true_misses_proxy),
                0.15 * static_cast<double>(true_misses_proxy));
}

TEST(Umon, OnlySampledSetsUpdateAtd)
{
    UmonConfig config = fullSampling();
    config.llc_sets = 16;
    config.sample_period = 4;
    UtilityMonitor umon(config);
    EXPECT_TRUE(umon.sampled(0));
    EXPECT_FALSE(umon.sampled(1));
    EXPECT_TRUE(umon.sampled(4));

    umon.access(makeAddr(1, 1)); // unsampled
    EXPECT_EQ(umon.missCount(), 0u);
    EXPECT_EQ(umon.accessCount(), 1u);
    umon.access(makeAddr(1, 4)); // sampled
    EXPECT_EQ(umon.missCount(), 1u);
}

TEST(Umon, DecayHalvesCounters)
{
    UtilityMonitor umon(fullSampling());
    for (int i = 0; i < 8; ++i) {
        umon.access(makeAddr(1, 0));
    }
    EXPECT_EQ(umon.missCount(), 1u);
    EXPECT_EQ(umon.positionHits()[0], 7u);
    umon.decay();
    EXPECT_EQ(umon.positionHits()[0], 3u);
    EXPECT_EQ(umon.missCount(), 0u);
}

TEST(Umon, ResetClearsEverything)
{
    UtilityMonitor umon(fullSampling());
    umon.access(makeAddr(1, 0));
    umon.access(makeAddr(1, 0));
    umon.reset();
    EXPECT_EQ(umon.missCount(), 0u);
    EXPECT_EQ(umon.accessCount(), 0u);
    // The ATD forgot the block: next access misses again.
    umon.access(makeAddr(1, 0));
    EXPECT_EQ(umon.missCount(), 1u);
}
