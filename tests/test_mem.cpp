/**
 * @file
 * Unit tests for the banked DRAM timing model.
 */

#include <gtest/gtest.h>

#include "mem/dram.hpp"

using namespace coopsim;
using mem::DramConfig;
using mem::DramModel;

namespace
{

DramConfig
smallConfig()
{
    DramConfig config;
    config.banks = 4;
    config.access_latency = 400;
    config.bank_occupancy = 40;
    config.max_outstanding = 8;
    return config;
}

/** Block addresses mapping to bank b: block index ≡ b (mod banks). */
Addr
addrForBank(std::uint32_t bank, std::uint32_t banks, std::uint32_t round)
{
    return static_cast<Addr>(bank + round * banks) * 64;
}

} // namespace

TEST(Dram, UnloadedAccessTakesBaseLatency)
{
    DramModel dram(smallConfig());
    EXPECT_EQ(dram.access(0, AccessType::Read, 100), 100 + 400);
}

TEST(Dram, SameBankBackToBackSerialises)
{
    DramModel dram(smallConfig());
    const Addr a = addrForBank(0, 4, 0);
    const Addr b = addrForBank(0, 4, 1);
    const Cycle first = dram.access(a, AccessType::Read, 0);
    const Cycle second = dram.access(b, AccessType::Read, 0);
    EXPECT_EQ(first, 400u);
    // Second waits for the 40-cycle bank occupancy.
    EXPECT_EQ(second, 40u + 400u);
}

TEST(Dram, DifferentBanksProceedInParallel)
{
    DramModel dram(smallConfig());
    const Cycle first = dram.access(addrForBank(0, 4, 0),
                                    AccessType::Read, 0);
    const Cycle second = dram.access(addrForBank(1, 4, 0),
                                     AccessType::Read, 0);
    EXPECT_EQ(first, second);
}

TEST(Dram, OutstandingWindowBoundsOverlap)
{
    DramConfig config = smallConfig();
    config.max_outstanding = 2;
    DramModel dram(config);
    // Two requests to different banks fill the window.
    const Cycle a = dram.access(addrForBank(0, 4, 0), AccessType::Read, 0);
    dram.access(addrForBank(1, 4, 0), AccessType::Read, 0);
    // The third cannot start before the first completes.
    const Cycle c = dram.access(addrForBank(2, 4, 0), AccessType::Read, 0);
    EXPECT_GE(c, a + 400);
}

TEST(Dram, StatsCountRequestKinds)
{
    DramModel dram(smallConfig());
    dram.access(0, AccessType::Read, 0);
    dram.access(64, AccessType::Write, 0);
    dram.writeback(128, 0);
    dram.flush(192, 0);
    dram.flush(256, 0);
    EXPECT_EQ(dram.stats().reads.value(), 1u); // not the store's fill
    EXPECT_EQ(dram.stats().writebacks.value(), 1u);
    EXPECT_EQ(dram.stats().flushes.value(), 2u);
}

TEST(Dram, ResetStatsClearsCounters)
{
    DramModel dram(smallConfig());
    dram.access(0, AccessType::Read, 0);
    dram.resetStats();
    EXPECT_EQ(dram.stats().reads.value(), 0u);
}

TEST(Dram, ContendedRequestsQueueBehindBankAndWindow)
{
    // Sixteen same-bank reads issued at cycle 0, so every cycle past
    // the 400-cycle latency is queueing. The first eight start one
    // 40-cycle bank occupancy apart; the window of 8 then holds each
    // later one until the request eight before it completes.
    DramModel dram(smallConfig());
    for (std::uint32_t i = 0; i < 16; ++i) {
        const Cycle expected = i < 8 ? 400 + 40 * i : 800 + 40 * (i - 8);
        EXPECT_EQ(dram.access(addrForBank(0, 4, i), AccessType::Read, 0),
                  expected)
            << i;
    }
}

TEST(Dram, FlushTrafficDelaysDemand)
{
    DramModel dram(smallConfig());
    // Saturate one bank with flushes.
    for (int i = 0; i < 10; ++i) {
        dram.flush(addrForBank(3, 4, i), 0);
    }
    const Cycle demand = dram.access(addrForBank(3, 4, 100),
                                     AccessType::Read, 0);
    EXPECT_GT(demand, 400u);
}

/** Completion times are monotone when issue times are monotone. */
class DramMonotoneTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(DramMonotoneTest, SameBankCompletionsMonotone)
{
    DramConfig config = smallConfig();
    config.banks = GetParam();
    DramModel dram(config);
    Cycle prev = 0;
    Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        now += static_cast<Cycle>(i % 7) * 10;
        // Always bank 0: completions must be strictly ordered by the
        // bank occupancy chain.
        const Cycle done = dram.access(
            addrForBank(0, config.banks, i), AccessType::Read, now);
        EXPECT_GE(done, prev);
        prev = done;
    }
}

INSTANTIATE_TEST_SUITE_P(BankCounts, DramMonotoneTest,
                         ::testing::Values(1u, 2u, 8u, 16u));
