/**
 * @file
 * Unit tests for the common kernel: RNG, statistics, geometry, logging.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/geometry.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

using namespace coopsim;

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 4096ull}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.nextBelow(bound), bound);
        }
    }
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(11);
    constexpr int kBuckets = 8;
    constexpr int kDraws = 80000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i) {
        ++counts[rng.nextBelow(kBuckets)];
    }
    for (int c : counts) {
        EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
    }
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.nextDouble();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(5);
    int trues = 0;
    for (int i = 0; i < 20000; ++i) {
        trues += rng.nextBool(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(trues / 20000.0, 0.3, 0.02);
}

TEST(Rng, CdfDrawsMatchDistribution)
{
    Rng rng(9);
    const GuidedCdf<3> cdf({0.2, 0.5, 1.0});
    int counts[3] = {};
    for (int i = 0; i < 30000; ++i) {
        ++counts[rng.nextFromCdf(cdf)];
    }
    EXPECT_NEAR(counts[0] / 30000.0, 0.2, 0.02);
    EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
    EXPECT_NEAR(counts[2] / 30000.0, 0.5, 0.02);
}

TEST(Rng, GuidedCdfDrawsWhatALinearScanDraws)
{
    // Entries on bucket floors (0.25 = 64/256, 0.5), several entries
    // inside one bucket, zero-mass classes, a cumulative total short
    // of 1 (the last class takes the rest) and a non-monotone array.
    const std::array<double, 8> cdfs[] = {
        {0.25, 0.25, 0.5, 0.5001, 0.5002, 0.75, 0.9, 1.0},
        {0.0, 0.0, 1e-9, 0.001, 0.002, 0.999, 1.0, 1.0},
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
        {0.6, 0.2, 0.7, 0.1, 0.9, 0.3, 0.95, 1.0},
    };
    const auto scan = [](const std::array<double, 8> &cdf,
                         std::uint64_t bits) {
        const double u = static_cast<double>(bits) * 0x1.0p-53;
        for (std::uint32_t i = 0; i < cdf.size(); ++i) {
            if (u < cdf[i]) {
                return i;
            }
        }
        return static_cast<std::uint32_t>(cdf.size() - 1);
    };
    constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
    for (const auto &cdf : cdfs) {
        const GuidedCdf<8> guided(cdf);
        // Each bucket's floor, the draws either side of it, and the
        // draws at and either side of every entry.
        std::vector<std::uint64_t> draws;
        for (std::uint64_t b = 0; b < 256; ++b) {
            const std::uint64_t floor = b << 45;
            draws.insert(draws.end(), {floor, floor + 1, floor - 1});
        }
        for (const double v : cdf) {
            const auto at = static_cast<std::uint64_t>(v * 0x1.0p53);
            draws.insert(draws.end(), {at, at + 1, at - 1});
        }
        Rng rng(21);
        for (int i = 0; i < 100000; ++i) {
            draws.push_back(rng.next() >> 11);
        }
        for (const std::uint64_t bits : draws) {
            if (bits < kTop) {
                ASSERT_EQ(guided.classOf(bits), scan(cdf, bits))
                    << "bits = " << bits;
            }
        }
        // nextFromCdf is classOf over the engine's top 53 bits.
        Rng a(5);
        Rng b(5);
        for (int i = 0; i < 1000; ++i) {
            ASSERT_EQ(a.nextFromCdf(guided), guided.classOf(b.next() >> 11));
        }
    }
}

TEST(Rng, GeometricHasExpectedMean)
{
    Rng rng(13);
    const double p = 0.1;
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        sum += static_cast<double>(rng.nextGeometric(p));
    }
    // Mean of failures-before-success = (1-p)/p = 9.
    EXPECT_NEAR(sum / 20000.0, 9.0, 0.5);
}

TEST(Rng, GeometricWithCertaintyIsZero)
{
    Rng rng(17);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(rng.nextGeometric(1.0), 0u);
    }
}

// ---------------------------------------------------------------------------
// stats

TEST(Stats, CounterAccumulatesAndResets)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageIsWeighted)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(1.0, 1.0);
    a.sample(3.0, 3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 10.0 / 4.0);
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, TimeSeriesBinsByOffset)
{
    stats::TimeSeries ts(100, 5);
    ts.record(0);
    ts.record(99);
    ts.record(100);
    ts.record(450, 3);
    ts.record(10'000); // clamps into the last bin
    EXPECT_EQ(ts.bin(0), 2u);
    EXPECT_EQ(ts.bin(1), 1u);
    EXPECT_EQ(ts.bin(4), 4u);
    EXPECT_EQ(ts.total(), 7u);
    ts.reset();
    EXPECT_EQ(ts.total(), 0u);
}

TEST(Stats, GeomeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(stats::geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(stats::geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats::geomean({}), 0.0);
}

TEST(Stats, MeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(stats::mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
}

// ---------------------------------------------------------------------------
// geometry

TEST(Geometry, PowerOfTwoChecks)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(Geometry, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
}

/** Address slicing round-trips for a sweep of geometries. */
class SlicerTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(SlicerTest, SliceAndComposeRoundTrip)
{
    const auto [sets, block] = GetParam();
    AddrSlicer slicer(sets, block);
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.next();
        const Addr aligned = slicer.blockAlign(addr);
        const SetId set = slicer.set(addr);
        const Addr tag = slicer.tag(addr);
        EXPECT_LT(set, sets);
        EXPECT_EQ(slicer.compose(tag, set), aligned);
        EXPECT_EQ(slicer.set(aligned), set);
        EXPECT_EQ(slicer.tag(aligned), tag);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SlicerTest,
    ::testing::Values(std::make_pair(64u, 64u), std::make_pair(512u, 64u),
                      std::make_pair(4096u, 64u),
                      std::make_pair(2048u, 128u),
                      std::make_pair(1u, 32u)));

TEST(Geometry, DistinctSetsForSequentialBlocks)
{
    AddrSlicer slicer(256, 64);
    std::set<SetId> seen;
    for (Addr block = 0; block < 256; ++block) {
        seen.insert(slicer.set(block * 64));
    }
    EXPECT_EQ(seen.size(), 256u);
}

// ---------------------------------------------------------------------------
// logging

TEST(Logging, FatalThrowsWhenHooked)
{
    setThrowOnFatal(true);
    EXPECT_THROW(COOPSIM_FATAL("boom ", 42), FatalError);
    setThrowOnFatal(false);
}

TEST(Logging, ConcatFormatsMixedTypes)
{
    EXPECT_EQ(detail::concat("a=", 1, " b=", 2.5), "a=1 b=2.5");
}
