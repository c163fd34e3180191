/**
 * @file
 * Tests for the batched intra-run hot path:
 *
 *  - MinClockTree::secondBest() agrees with a linear scan that skips
 *    the winner, across 1..17 cores and the 31..64-core rows under
 *    randomised clock sequences (including ties — the quantum bound
 *    depends on the runner-up's index as well as its clock — updates
 *    of non-winner leaves and clocks at the top of the key range);
 *  - TraceCore::stepQuantum() is bit-identical to a step() loop with
 *    the same post-step exit checks;
 *  - the batched System driver produces bit-identical results to the
 *    per-op reference driver (store::formatResult compares every
 *    RunResult field exactly) over 1..16 cores x all three
 *    partitioners x test-scale workloads, including the warmup-free
 *    edge case, and on a G32 and a G64 mix under exact and setop
 *    sampling — and actually batches (avgQuantumOps > 1);
 *  - COOPSIM_THREADS gets the --threads=N treatment: garbage or 0 is
 *    a descriptive fatal, not a silent fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <coopsim/experiment.hpp>

#include "common/rng.hpp"
#include "core/trace_core.hpp"
#include "llc/schemes.hpp"
#include "sim/min_clock_tree.hpp"
#include "store/result_store.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"

using namespace coopsim;
using namespace coopsim::sim;

// ---------------------------------------------------------------------------
// secondBest

namespace
{

/** Reference: minimum over every index except @p skip, lowest index
 *  on ties — the semantics the quantum bound needs. */
MinClockTree::Second
refSecond(const std::vector<Cycle> &clock, std::uint32_t skip)
{
    MinClockTree::Second best{MinClockTree::kNoSecond, kCycleMax};
    for (std::uint32_t c = 0; c < clock.size(); ++c) {
        if (c == skip) {
            continue;
        }
        if (clock[c] < best.clock ||
            (clock[c] == best.clock && c < best.index)) {
            best = {c, clock[c]};
        }
    }
    return best;
}

std::uint32_t
refMin(const std::vector<Cycle> &clock)
{
    std::uint32_t best = 0;
    for (std::uint32_t c = 1; c < clock.size(); ++c) {
        if (clock[c] < clock[best]) {
            best = c;
        }
    }
    return best;
}

} // namespace

TEST(MinClockTreeSecond, MatchesSkippingScanAcrossCoreCounts)
{
    Rng rng(20260730);
    std::vector<std::uint32_t> counts;
    for (std::uint32_t n = 1; n <= 17; ++n) {
        counts.push_back(n);
    }
    // The 32/64-core rows: padded leaves and the deepest trees.
    for (const std::uint32_t n : {31u, 32u, 33u, 63u, 64u}) {
        counts.push_back(n);
    }
    for (const std::uint32_t n : counts) {
        // Small value range so ties (including winner == runner-up)
        // are common.
        std::vector<Cycle> clock(n);
        for (Cycle &c : clock) {
            c = rng.nextBelow(6);
        }
        MinClockTree tree(clock);
        for (int step = 0; step < 2000; ++step) {
            auto idx = static_cast<std::uint32_t>(rng.nextBelow(n));
            if (n > 1 && rng.nextBelow(2) == 0) {
                // Move a non-winner leaf: the fast-forward pattern.
                while (idx == refMin(clock)) {
                    idx = static_cast<std::uint32_t>(rng.nextBelow(n));
                }
            }
            const std::uint64_t kind = rng.nextBelow(64);
            const Cycle value =
                kind == 0       ? MinClockTree::kMaxClock
                : kind % 4 == 1 ? rng.nextBelow(6)
                                : std::min(clock[idx] + rng.nextBelow(3),
                                           MinClockTree::kMaxClock);
            clock[idx] = value;
            tree.update(idx, value);
            const MinClockTree::Second expected =
                refSecond(clock, refMin(clock));
            const MinClockTree::Second got = tree.secondBest();
            ASSERT_EQ(got.index, expected.index)
                << "n=" << n << " step=" << step;
            ASSERT_EQ(got.clock, expected.clock)
                << "n=" << n << " step=" << step;
        }
    }
}

TEST(MinClockTreeSecond, SingleCoreHasNoRunnerUp)
{
    MinClockTree tree(std::vector<Cycle>{7});
    EXPECT_EQ(tree.secondBest().index, MinClockTree::kNoSecond);
    EXPECT_EQ(tree.secondBest().clock, kCycleMax);
}

// ---------------------------------------------------------------------------
// stepQuantum vs step

namespace
{

llc::LlcConfig
tinyLlc()
{
    llc::LlcConfig config;
    config.geometry = {64ull * 4 * 64, 4, 64};
    config.num_cores = 1;
    return config;
}

} // namespace

TEST(StepQuantum, MatchesPerOpLoopWithPostStepChecks)
{
    const trace::AppProfile profile =
        trace::specProfile(trace::allSpecApps().front());
    trace::StreamGeometry sg;
    sg.llc_sets = 64;

    // Reference: step() with the driver's post-step exit checks.
    mem::DramModel dram_a;
    llc::UnmanagedLlc llc_a(tinyLlc(), dram_a);
    trace::SyntheticStream stream_a(profile, sg, 0, 99);
    core::TraceCore ref(0, core::CoreConfig{}, llc_a, stream_a);

    mem::DramModel dram_b;
    llc::UnmanagedLlc llc_b(tinyLlc(), dram_b);
    trace::SyntheticStream stream_b(profile, sg, 0, 99);
    core::TraceCore batched(0, core::CoreConfig{}, llc_b, stream_b);

    Rng rng(5);
    for (int round = 0; round < 200; ++round) {
        const Cycle cycle_bound = ref.cycle() + 1 + rng.nextBelow(400);
        const InstCount inst_bound =
            rng.nextBelow(3) == 0
                ? ref.retired() + 1 + rng.nextBelow(300)
                : std::numeric_limits<InstCount>::max();

        std::uint64_t ref_ops = 0;
        do {
            ref.step();
            ++ref_ops;
        } while (ref.cycle() < cycle_bound &&
                 ref.retired() < inst_bound);

        const std::uint64_t ops =
            batched.stepQuantum(cycle_bound, inst_bound);
        ASSERT_EQ(ops, ref_ops) << "round " << round;
        ASSERT_EQ(batched.cycle(), ref.cycle()) << "round " << round;
        ASSERT_EQ(batched.retired(), ref.retired()) << "round " << round;
    }
    EXPECT_EQ(llc_a.hitsTotal(), llc_b.hitsTotal());
    EXPECT_EQ(llc_a.missesTotal(), llc_b.missesTotal());
}

// ---------------------------------------------------------------------------
// Batched driver vs per-op driver, whole runs

namespace
{

/**
 * A shrunk run (the property holds at any scale) that still crosses
 * several epoch boundaries, the warmup handoff and every core's quota
 * mark — the points where the batched driver must cut its quanta
 * exactly where the per-op loop re-arbitrated.
 */
SystemConfig
propertyConfig(std::uint32_t n, partition::Partitioner partitioner,
               InstCount warmup)
{
    SystemConfig config = makeSystemConfig(n, "coop", RunScale::Test);
    config.insts_per_app = 60'000;
    config.warmup_insts = warmup;
    config.epoch_cycles = 20'000;
    config.llc.partitioner = partitioner;
    return config;
}

std::vector<trace::AppProfile>
profilesFor(std::uint32_t n)
{
    const std::vector<std::string> &apps = trace::allSpecApps();
    std::vector<trace::AppProfile> profiles;
    for (std::uint32_t c = 0; c < n; ++c) {
        profiles.push_back(trace::specProfile(apps[c % apps.size()]));
    }
    return profiles;
}

/** formatResult line of a run under the given driver mode. */
std::string
runLine(SystemConfig config, std::uint32_t n, DriverMode mode,
        double *avg_quantum = nullptr)
{
    config.driver = mode;
    System system(config, profilesFor(n));
    const RunResult result = system.run();
    if (avg_quantum != nullptr) {
        *avg_quantum = system.driverStats().avgQuantumOps();
    }
    // The store line encodes every RunResult field bit-exactly, so
    // equal lines mean bit-identical results.
    return store::formatResult(result);
}

} // namespace

TEST(BatchedDriver, BitIdenticalAcrossCoreCountsAndPartitioners)
{
    const partition::Partitioner partitioners[] = {
        partition::Partitioner::Lookahead,
        partition::Partitioner::EqualShare,
        partition::Partitioner::GreedyUtility,
    };
    for (std::uint32_t n = 1; n <= 16; ++n) {
        for (const partition::Partitioner p : partitioners) {
            const SystemConfig config = propertyConfig(n, p, 25'000);
            double avg_quantum = 0.0;
            const std::string batched =
                runLine(config, n, DriverMode::Batched, &avg_quantum);
            const std::string perop =
                runLine(config, n, DriverMode::PerOp);
            ASSERT_EQ(batched, perop)
                << "n=" << n << " partitioner="
                << api::partitionerKeyOf(p);
            EXPECT_GT(avg_quantum, 1.0)
                << "n=" << n << ": the batched driver never batched";
        }
    }
}

TEST(BatchedDriver, BitIdenticalAtFullTestScale)
{
    // Full Test-scale two- and four-core runs (the paper's
    // configurations), including a zero-warmup edge case where the
    // measurement loop starts immediately.
    for (const std::uint32_t n : {2u, 4u}) {
        SystemConfig config =
            makeSystemConfig(n, "coop", RunScale::Test);
        EXPECT_EQ(runLine(config, n, DriverMode::Batched),
                  runLine(config, n, DriverMode::PerOp))
            << "n=" << n;
        config.warmup_insts = 0;
        EXPECT_EQ(runLine(config, n, DriverMode::Batched),
                  runLine(config, n, DriverMode::PerOp))
            << "n=" << n << " (no warmup)";
    }
}

TEST(BatchedDriver, GroupRunsMatchAcrossSchemes)
{
    // Real Table 4 / generated-mix groups under every scheme: the
    // driver equivalence must hold for schemes with epoch-time state
    // machines (coop transfers, CPE bulk flushes), not just coop.
    struct Case
    {
        const char *group;
        const char *scheme;
    };
    const Case cases[] = {
        {"G2-3", "unmanaged"}, {"G2-3", "fairshare"}, {"G2-3", "ucp"},
        {"G2-3", "cpe"},       {"G2-3", "coop"},      {"G4-1", "coop"},
        {"G8-mix1", "ucp"},    {"G16-cpu1", "coop"},
    };
    for (const Case &c : cases) {
        const trace::WorkloadGroup &group = trace::groupByName(c.group);
        const auto n = static_cast<std::uint32_t>(group.apps.size());
        SystemConfig config =
            makeSystemConfig(n, c.scheme, RunScale::Test);

        config.driver = DriverMode::Batched;
        System batched(config, trace::groupProfiles(group));
        const std::string batched_line =
            store::formatResult(batched.run());

        config.driver = DriverMode::PerOp;
        System perop(config, trace::groupProfiles(group));
        const std::string perop_line =
            store::formatResult(perop.run());

        EXPECT_EQ(batched_line, perop_line)
            << c.group << " / " << c.scheme;
        EXPECT_GT(batched.driverStats().avgQuantumOps(), 1.0)
            << c.group << " / " << c.scheme;
        // Per-op mode accounts one op per quantum by definition.
        EXPECT_EQ(perop.driverStats().quanta,
                  perop.driverStats().steps);
    }
}

TEST(BatchedDriver, ManyCoreRowsMatchUnderExactAndSetop)
{
    // The 32- and 64-core rows arbitrate through padded, deeper trees.
    // Under setop the fast-forward jump re-updates a core that may no
    // longer be the arbitration winner, right after its quantum's own
    // update. The warm-up exit step and that double update must land
    // where the per-op loop puts them.
    for (const char *name : {"G32-mix1", "G64-mix1"}) {
        const trace::WorkloadGroup &group = trace::groupByName(name);
        const auto n = static_cast<std::uint32_t>(group.apps.size());
        for (const sampling::Mode mode :
             {sampling::Mode::Exact, sampling::Mode::SetOp}) {
            SystemConfig config =
                makeSystemConfig(n, "coop", RunScale::Test);
            config.sampling.mode = mode;

            config.driver = DriverMode::Batched;
            System batched(config, trace::groupProfiles(group));
            const std::string batched_line =
                store::formatResult(batched.run());

            config.driver = DriverMode::PerOp;
            System perop(config, trace::groupProfiles(group));
            const std::string perop_line =
                store::formatResult(perop.run());

            EXPECT_EQ(batched_line, perop_line)
                << name << " / mode " << static_cast<int>(mode);
            EXPECT_GT(batched.driverStats().avgQuantumOps(), 1.0)
                << name << " / mode " << static_cast<int>(mode);
        }
    }
}

// ---------------------------------------------------------------------------
// COOPSIM_THREADS validation

TEST(CoopsimThreadsEnv, GarbageOrZeroIsDescriptivelyFatal)
{
    setThrowOnFatal(true);
    for (const char *bad : {"garbage", "0", "12abc", "", "9999999"}) {
        ASSERT_EQ(setenv("COOPSIM_THREADS", bad, 1), 0);
        try {
            // Thread count 0 resolves the default chain, which must
            // reject the variable instead of silently falling back.
            RunExecutor executor(0);
            FAIL() << "expected a fatal error for COOPSIM_THREADS='"
                   << bad << "'";
        } catch (const FatalError &e) {
            const std::string message = e.what();
            EXPECT_NE(message.find("COOPSIM_THREADS"),
                      std::string::npos)
                << message;
            EXPECT_NE(message.find(bad), std::string::npos) << message;
        }
    }
    ASSERT_EQ(unsetenv("COOPSIM_THREADS"), 0);
    setThrowOnFatal(false);

    // A valid value still resolves.
    ASSERT_EQ(setenv("COOPSIM_THREADS", "3", 1), 0);
    RunExecutor executor(0);
    EXPECT_EQ(executor.threads(), 3u);
    ASSERT_EQ(unsetenv("COOPSIM_THREADS"), 0);
}
