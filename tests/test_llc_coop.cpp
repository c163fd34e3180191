/**
 * @file
 * Tests for the paper's core contribution: RAP/WAP permission
 * registers, takeover bit vectors and the CooperativeLlc scheme with
 * its cooperative-takeover protocol.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "llc/permissions.hpp"
#include "llc/schemes.hpp"
#include "llc/takeover.hpp"
#include "sim/system.hpp"

using namespace coopsim;
using namespace coopsim::llc;

// ---------------------------------------------------------------------------
// PermissionFile

TEST(Permissions, SteadyOwnershipState)
{
    PermissionFile perms(4, 2);
    perms.setOwner(0, 0);
    EXPECT_EQ(perms.state(0), WayState::Steady);
    EXPECT_TRUE(perms.canRead(0, 0));
    EXPECT_TRUE(perms.canWrite(0, 0));
    EXPECT_FALSE(perms.canRead(0, 1));
    EXPECT_EQ(perms.writerOf(0), 0u);
    EXPECT_EQ(perms.donorOf(0), kNoCore);
    perms.checkInvariants();
}

TEST(Permissions, TransferFollowsThePaperFigure3)
{
    // The paper's Figure 3: way 2 moves from core 1 to core 0.
    PermissionFile perms(4, 2);
    perms.setOwner(0, 0);
    perms.setOwner(1, 0);
    perms.setOwner(2, 1);
    perms.setOwner(3, 1);

    perms.beginTransfer(2, 1, 0);
    EXPECT_EQ(perms.state(2), WayState::Transition);
    // Core 0 has full access; core 1 read-only.
    EXPECT_TRUE(perms.canRead(2, 0));
    EXPECT_TRUE(perms.canWrite(2, 0));
    EXPECT_TRUE(perms.canRead(2, 1));
    EXPECT_FALSE(perms.canWrite(2, 1));
    EXPECT_EQ(perms.donorOf(2), 1u);
    EXPECT_EQ(perms.writerOf(2), 0u);
    perms.checkInvariants();

    // After the transition the donor's read permission is withdrawn.
    perms.clearRead(2, 1);
    EXPECT_EQ(perms.state(2), WayState::Steady);
    EXPECT_FALSE(perms.canRead(2, 1));
    perms.checkInvariants();
}

TEST(Permissions, DrainThenPowerOff)
{
    PermissionFile perms(4, 2);
    perms.setOwner(0, 0);
    perms.beginDrain(0, 0);
    EXPECT_EQ(perms.state(0), WayState::Draining);
    EXPECT_TRUE(perms.canRead(0, 0));
    EXPECT_FALSE(perms.canWrite(0, 0));

    perms.clearRead(0, 0);
    perms.powerOff(0);
    EXPECT_EQ(perms.state(0), WayState::Off);
    EXPECT_FALSE(perms.powered(0));
    EXPECT_EQ(perms.poweredCount(), 0u);
    // Ways 1-3 were never powered on, so the whole file reads off.
    EXPECT_EQ(perms.offMask(), 0xFu);
    perms.checkInvariants();
}

TEST(Permissions, FullWidthPowerMaskMatchesPerWayScan)
{
    // The 32-core banked rows: 64 ways, so way 63 is the mask's top bit.
    constexpr std::uint32_t kWays = 64;
    constexpr std::uint32_t kCores = 32;
    PermissionFile perms(kWays, kCores);
    for (WayId w = 0; w < kWays; ++w) {
        perms.setOwner(w, w % kCores);
    }
    perms.beginDrain(63, 63 % kCores);
    perms.clearRead(63, 63 % kCores);
    perms.powerOff(63);
    EXPECT_EQ(perms.poweredCount(), 63u);
    EXPECT_EQ(perms.offMask(), std::uint64_t{1} << 63);

    // A seeded walk of legal register moves; after each one the mask
    // queries must agree with a scan of powered() over every way.
    Rng rng(63);
    for (int step = 0; step < 4000; ++step) {
        const auto w = static_cast<WayId>(rng.nextBelow(kWays));
        const auto c = static_cast<CoreId>(rng.nextBelow(kCores));
        switch (perms.state(w)) {
          case WayState::Off:
            perms.setOwner(w, c);
            break;
          case WayState::Steady: {
            const CoreId owner = perms.writerOf(w);
            if (c != owner && rng.nextBelow(2) == 0) {
                perms.beginTransfer(w, owner, c);
            } else {
                perms.beginDrain(w, owner);
            }
            break;
          }
          case WayState::Transition:
            perms.clearRead(w, perms.donorOf(w));
            break;
          case WayState::Draining:
            if (perms.donorOf(w) != kNoCore) {
                perms.clearRead(w, perms.donorOf(w));
            } else {
                perms.powerOff(w);
            }
            break;
        }
        perms.checkInvariants();

        std::uint32_t powered = 0;
        std::uint64_t off = 0;
        for (WayId v = 0; v < kWays; ++v) {
            if (perms.powered(v)) {
                ++powered;
            } else {
                off |= std::uint64_t{1} << v;
            }
        }
        ASSERT_EQ(perms.poweredCount(), powered) << "step " << step;
        ASSERT_EQ(perms.offMask(), off) << "step " << step;
    }
}

TEST(Permissions, MasksReflectRoles)
{
    PermissionFile perms(4, 2);
    perms.setOwner(0, 0);
    perms.setOwner(1, 0);
    perms.setOwner(2, 1);
    perms.setOwner(3, 1);
    perms.beginTransfer(2, 1, 0);

    EXPECT_EQ(perms.readMask(0), 0b0111u);
    EXPECT_EQ(perms.writeMask(0), 0b0111u);
    EXPECT_EQ(perms.readMask(1), 0b1100u);
    EXPECT_EQ(perms.writeMask(1), 0b1000u);
    EXPECT_EQ(perms.donatingMask(1), 0b0100u);
    EXPECT_EQ(perms.receivingMask(0), 0b0100u);
    EXPECT_EQ(perms.donatingMask(0), 0u);
    EXPECT_EQ(perms.receivingMask(1), 0u);
}

// ---------------------------------------------------------------------------
// TakeoverDirectory

TEST(Takeover, FillsAndReports)
{
    TakeoverDirectory dir(2, 4);
    EXPECT_FALSE(dir.full(0));
    EXPECT_TRUE(dir.mark(0, 0));
    EXPECT_FALSE(dir.mark(0, 0)); // already set
    EXPECT_TRUE(dir.mark(0, 1));
    EXPECT_TRUE(dir.mark(0, 2));
    EXPECT_FALSE(dir.full(0));
    EXPECT_TRUE(dir.mark(0, 3));
    EXPECT_TRUE(dir.full(0));
    EXPECT_EQ(dir.popcount(0), 4u);
    // The other core's vector is untouched.
    EXPECT_EQ(dir.popcount(1), 0u);
}

TEST(Takeover, ResetClearsOneCoreOnly)
{
    TakeoverDirectory dir(2, 4);
    for (SetId s = 0; s < 4; ++s) {
        dir.mark(0, s);
        dir.mark(1, s);
    }
    dir.reset(0);
    EXPECT_EQ(dir.popcount(0), 0u);
    EXPECT_TRUE(dir.full(1));
}

TEST(Takeover, StorageBitsMatchTable1)
{
    // Table 1: takeover vectors cost sets x cores bits, and the RAP
    // and WAP registers ways x cores bits each.
    const PermissionFile two_perms(8, 2);
    const PermissionFile four_perms(16, 4);
    EXPECT_EQ(two_perms.storageBits(), 2u * 16u);
    EXPECT_EQ(four_perms.storageBits(), 2u * 64u);

    // The paper's totals, for its 2048-set vectors.
    EXPECT_EQ(TakeoverDirectory(2, 2048).storageBits(), 4096u);
    EXPECT_EQ(TakeoverDirectory(4, 2048).storageBits(), 8192u);
    EXPECT_EQ(TakeoverDirectory(2, 2048).storageBits() +
                  two_perms.storageBits(),
              4128u);
    EXPECT_EQ(TakeoverDirectory(4, 2048).storageBits() +
                  four_perms.storageBits(),
              8320u);

    // Both paper LLCs (2 MB/8-way and 4 MB/16-way, 64 B blocks)
    // actually have 4096 sets.
    for (const std::uint32_t cores : {2u, 4u}) {
        EXPECT_EQ(sim::makeSystemConfig(cores, "coop", sim::RunScale::Paper)
                      .llc.geometry.numSets(),
                  4096u);
    }
    EXPECT_EQ(TakeoverDirectory(2, 4096).storageBits() +
                  two_perms.storageBits(),
              8224u);
    EXPECT_EQ(TakeoverDirectory(4, 4096).storageBits() +
                  four_perms.storageBits(),
              16512u);
}

// ---------------------------------------------------------------------------
// CooperativeLlc protocol

namespace
{

/** 8 sets x 4 ways x 64 B shared by 2 cores — small enough to drive
 *  complete takeovers by hand. */
LlcConfig
microConfig()
{
    LlcConfig config;
    config.geometry = {8 * 4 * 64, 4, 64};
    config.num_cores = 2;
    config.hit_latency = 10;
    config.umon_sample_period = 1;
    config.confirm_epochs = 1;
    config.threshold = 0.05;
    config.stale_transition_cycles = 1'000'000'000;
    return config;
}

Addr
makeAddr(CoreId core, Addr tag, SetId set)
{
    return (static_cast<Addr>(core + 1) << 40) | (tag << (6 + 3)) |
           (static_cast<Addr>(set) << 6);
}

/**
 * Drives traffic that makes core 0 want 3 ways (3-deep reuse) and
 * core 1 want 1 (single hot block per set).
 */
void
skewedTraffic(CooperativeLlc &llc, Cycle &now, int rounds = 300)
{
    for (int round = 0; round < rounds; ++round) {
        for (SetId s = 0; s < 8; ++s) {
            for (Addr t = 0; t < 3; ++t) {
                llc.access(0, makeAddr(0, t, s), AccessType::Read, ++now);
            }
            llc.access(1, makeAddr(1, 0, s), AccessType::Write, ++now);
        }
    }
}

} // namespace

TEST(CooperativeLlc, StartsWithFairAlignedSplit)
{
    mem::DramModel dram;
    CooperativeLlc llc(microConfig(), dram);
    EXPECT_EQ(llc.allocation(), (std::vector<std::uint32_t>{2, 2}));
    EXPECT_DOUBLE_EQ(llc.poweredWays(), 4.0);
    llc.checkInvariants();
}

TEST(CooperativeLlc, ProbesOnlyReadableWays)
{
    mem::DramModel dram;
    CooperativeLlc llc(microConfig(), dram);
    const LlcAccess res =
        llc.access(0, makeAddr(0, 0, 0), AccessType::Read, 0);
    EXPECT_EQ(res.ways_probed, 2u);
}

TEST(CooperativeLlc, EpochMovesWaysAndStartsTransition)
{
    mem::DramModel dram;
    CooperativeLlc llc(microConfig(), dram);
    Cycle now = 0;
    skewedTraffic(llc, now);
    llc.epoch(++now);

    // Core 1 must be donating (it holds 2 ways, wants 1); core 0
    // receives or a way drains off. Either way somebody donates.
    bool transitioning = false;
    for (WayId w = 0; w < 4; ++w) {
        const WayState state = llc.permissions().state(w);
        transitioning = transitioning ||
                        state == WayState::Transition ||
                        state == WayState::Draining;
    }
    EXPECT_TRUE(transitioning);
    EXPECT_EQ(llc.repartitions(), 1u);
    llc.checkInvariants();
}

TEST(CooperativeLlc, TakeoverCompletesAfterAllSetsTouched)
{
    mem::DramModel dram;
    CooperativeLlc llc(microConfig(), dram);
    Cycle now = 0;
    skewedTraffic(llc, now);
    llc.epoch(++now);

    // Keep running: both cores touch every set, setting takeover bits;
    // the transition must complete without force.
    skewedTraffic(llc, now, 50);

    for (WayId w = 0; w < 4; ++w) {
        const WayState state = llc.permissions().state(w);
        EXPECT_TRUE(state == WayState::Steady || state == WayState::Off)
            << "way " << w << " still transitioning";
    }
    EXPECT_EQ(llc.forcedCompletions(), 0u);
    EXPECT_GT(llc.takeoverEvents().total(), 0u);
    llc.checkInvariants();
}

TEST(CooperativeLlc, DonorDirtyLinesAreFlushedNotLost)
{
    mem::DramModel dram;
    CooperativeLlc llc(microConfig(), dram);
    Cycle now = 0;
    // Core 1 dirties its lines (writes) while core 0 builds demand.
    skewedTraffic(llc, now);
    const std::uint64_t flushes_before = dram.stats().flushes.value();
    llc.epoch(++now);
    skewedTraffic(llc, now, 50);
    // The donor's dirty blocks in moved ways went back to memory.
    EXPECT_GT(dram.stats().flushes.value(), flushes_before);
    EXPECT_GT(llc.flushedLines(), 0u);
}

TEST(CooperativeLlc, UnallocatedWaysPowerOff)
{
    mem::DramModel dram;
    CooperativeLlc llc(microConfig(), dram);
    Cycle now = 0;
    // Both cores keep a single hot block per set: each wants 1 way.
    for (int round = 0; round < 400; ++round) {
        for (SetId s = 0; s < 8; ++s) {
            llc.access(0, makeAddr(0, 0, s), AccessType::Read, ++now);
            llc.access(1, makeAddr(1, 0, s), AccessType::Read, ++now);
        }
    }
    llc.epoch(++now);
    // Drains need the donors to touch all sets again.
    for (int round = 0; round < 100; ++round) {
        for (SetId s = 0; s < 8; ++s) {
            llc.access(0, makeAddr(0, 0, s), AccessType::Read, ++now);
            llc.access(1, makeAddr(1, 0, s), AccessType::Read, ++now);
        }
    }
    EXPECT_LT(llc.poweredWays(), 4.0);
    EXPECT_EQ(llc.allocation(), (std::vector<std::uint32_t>{1, 1}));
    llc.checkInvariants();
}

TEST(CooperativeLlc, TransferDurationsRecorded)
{
    mem::DramModel dram;
    LlcConfig config = microConfig();
    CooperativeLlc llc(config, dram);
    Cycle now = 0;
    skewedTraffic(llc, now);
    llc.epoch(++now);
    skewedTraffic(llc, now, 50);

    // Whether the move was a transfer or a drain depends on the
    // allocator's exact choice; when a transfer happened its duration
    // must be positive and bounded by the elapsed time.
    for (const double d : llc.transferDurations()) {
        EXPECT_GT(d, 0.0);
        EXPECT_LE(d, static_cast<double>(now));
    }
}

TEST(CooperativeLlc, TakeoverEventsClassifyRoles)
{
    mem::DramModel dram;
    CooperativeLlc llc(microConfig(), dram);
    Cycle now = 0;
    skewedTraffic(llc, now);
    llc.epoch(++now);
    skewedTraffic(llc, now, 50);

    const TakeoverEventStats &ev = llc.takeoverEvents();
    // Bits can only be set once per (donor, set): bounded by sets.
    EXPECT_LE(ev.total(), 2u * 8u);
    EXPECT_GT(ev.total(), 0u);
}

TEST(CooperativeLlc, WriteHitOnDonatedWayReallocates)
{
    mem::DramModel dram;
    LlcConfig config = microConfig();
    config.num_cores = 2;
    CooperativeLlc llc(config, dram);
    Cycle now = 0;

    // Make core 1 a donor with a dirty line, then have it WRITE to the
    // same block: the write may not land in the donated way.
    skewedTraffic(llc, now);
    llc.epoch(++now);

    const cache::WayMask donating = llc.permissions().donatingMask(1);
    if (donating == 0) {
        GTEST_SKIP() << "allocator chose a drain-only plan";
    }
    // Write to its hot block in every set: must succeed and stay
    // consistent (the line moves into a way core 1 can write).
    for (SetId s = 0; s < 8; ++s) {
        llc.access(1, makeAddr(1, 0, s), AccessType::Write, ++now);
    }
    llc.checkInvariants();
    // The block is still readable by core 1 afterwards.
    EXPECT_TRUE(
        llc.access(1, makeAddr(1, 0, 0), AccessType::Read, ++now).hit);
}

TEST(CooperativeLlc, StaleTransitionIsForced)
{
    mem::DramModel dram;
    LlcConfig config = microConfig();
    config.stale_transition_cycles = 10; // force almost immediately
    CooperativeLlc llc(config, dram);
    Cycle now = 0;
    skewedTraffic(llc, now);
    llc.epoch(++now);

    bool had_transition = false;
    for (WayId w = 0; w < 4; ++w) {
        const WayState s = llc.permissions().state(w);
        had_transition = had_transition || s == WayState::Transition ||
                         s == WayState::Draining;
    }
    // Next epoch arrives long after the staleness bound.
    llc.epoch(now + 1'000'000);
    if (had_transition) {
        EXPECT_GT(llc.forcedCompletions(), 0u);
    }
    for (WayId w = 0; w < 4; ++w) {
        const WayState s = llc.permissions().state(w);
        EXPECT_TRUE(s == WayState::Steady || s == WayState::Off);
    }
    llc.checkInvariants();
}

TEST(CooperativeLlc, ConfirmationDampsOneEpochBlips)
{
    mem::DramModel dram;
    LlcConfig config = microConfig();
    config.confirm_epochs = 2;
    CooperativeLlc llc(config, dram);
    Cycle now = 0;
    // Balanced traffic, one epoch of skew, balanced again: with
    // two-epoch confirmation the blip must not repartition.
    auto balanced = [&](int rounds) {
        for (int round = 0; round < rounds; ++round) {
            for (SetId s = 0; s < 8; ++s) {
                llc.access(0, makeAddr(0, round % 2, s),
                           AccessType::Read, ++now);
                llc.access(1, makeAddr(1, round % 2, s),
                           AccessType::Read, ++now);
            }
        }
    };
    balanced(200);
    llc.epoch(++now);
    EXPECT_EQ(llc.repartitions(), 0u);
    skewedTraffic(llc, now, 100); // single skewed epoch
    llc.epoch(++now);
    EXPECT_EQ(llc.repartitions(), 0u); // pending, not adopted
    balanced(300);
    llc.epoch(++now);
    EXPECT_EQ(llc.repartitions(), 0u);
}

namespace
{

/** 16 sets x 8 ways x 64 B shared by 4 cores. */
LlcConfig
quadConfig()
{
    LlcConfig config = microConfig();
    config.geometry = {16 * 8 * 64, 8, 64};
    config.num_cores = 4;
    return config;
}

/** "alloc a,b,c,d ways <one letter per way> reps N", the letters
 *  O(ff), S(teady), T(ransition) and D(raining). */
std::string
snapshot(const CooperativeLlc &llc)
{
    std::string out = "alloc";
    const std::vector<std::uint32_t> alloc = llc.allocation();
    for (std::size_t c = 0; c < alloc.size(); ++c) {
        out += c == 0 ? ' ' : ',';
        out += std::to_string(alloc[c]);
    }
    out += " ways ";
    for (WayId w = 0; w < 8; ++w) {
        switch (llc.permissions().state(w)) {
          case WayState::Off: out += 'O'; break;
          case WayState::Steady: out += 'S'; break;
          case WayState::Transition: out += 'T'; break;
          case WayState::Draining: out += 'D'; break;
        }
    }
    return out + " reps " + std::to_string(llc.repartitions());
}

} // namespace

TEST(CooperativeLlc, OverlappingTransfersAndDrainsArePinned)
{
    // Each epoch's traffic cycles every core over `depth` blocks per
    // set (its UMON then asks for that many ways) in sets [first,
    // end). A takeover completes only once its donor's bit vector
    // covers every set, so half-range epochs leave transfers and
    // drains in flight while the next decisions start new ones.
    struct Phase
    {
        std::array<Addr, 4> depth;
        SetId first;
        SetId end;
    };
    const Phase phases[] = {
        {{4, 1, 1, 1}, 0, 16}, {{1, 4, 1, 1}, 0, 8},
        {{1, 1, 3, 0}, 8, 16}, {{3, 3, 1, 1}, 0, 8},
        {{1, 1, 1, 1}, 0, 16}, {{1, 2, 4, 1}, 8, 16},
        {{4, 1, 1, 3}, 0, 16}, {{1, 1, 1, 1}, 0, 8},
    };
    // Pinned: any change here is a change in simulated behaviour.
    const char *const expected[] = {
        "alloc 4,1,1,1 ways STTDSSSS reps 1",
        "alloc 4,1,1,1 ways STTDSSSS reps 1",
        "alloc 1,1,3,1 ways TTSDDSSS reps 2",
        "alloc 1,2,2,1 ways TTSDDSTS reps 3",
        "alloc 3,3,1,1 ways STSSSSSS reps 4",
        "alloc 1,2,4,1 ways STTSTSTS reps 5",
        "alloc 1,3,1,3 ways TSTSTSSS reps 6",
        "alloc 1,3,1,3 ways TSTSTSSS reps 6",
    };

    mem::DramModel dram;
    CooperativeLlc llc(quadConfig(), dram);
    Cycle now = 0;
    for (std::size_t e = 0; e < std::size(phases); ++e) {
        const Phase &phase = phases[e];
        for (int round = 0; round < 100; ++round) {
            for (SetId s = phase.first; s < phase.end; ++s) {
                for (CoreId c = 0; c < 4; ++c) {
                    for (Addr t = 0; t < phase.depth[c]; ++t) {
                        const Addr addr = (static_cast<Addr>(c + 1) << 40) |
                                          (t << 10) |
                                          (static_cast<Addr>(s) << 6);
                        llc.access(c, addr,
                                   (c + t) % 3 == 0 ? AccessType::Write
                                                    : AccessType::Read,
                                   ++now);
                    }
                }
            }
        }
        llc.epoch(++now);
        llc.checkInvariants();
        EXPECT_EQ(snapshot(llc), expected[e]) << "after epoch " << e + 1;
    }
}
