/**
 * @file
 * Tests for the N-core generalisation:
 *
 *  - the tournament-tree min_core() agrees with a linear scan across
 *    1..17 cores and the 31..64-core rows under randomised clock
 *    sequences (including ties, non-winner updates and clocks at the
 *    top of the packed-key range);
 *  - makeSystemConfig() reproduces the paper's Table 2 rows, rounds
 *    odd core counts up to the next topology row, asserts
 *    ways >= cores, and rejects counts beyond the table;
 *  - the ways-vs-cores geometry check fails loudly, naming the
 *    offending configuration;
 *  - the generated G8/G16 heterogeneous mixes are well-formed,
 *    deterministic, registered, and ordered by tier (mem > cpu MPKI);
 *  - the partitioner algorithms: equal-share counts, greedy threshold
 *    and floor behaviour, and look-ahead dispatch equivalence;
 *  - an 8-core spec sweep through the partitioner axis is bit-identical
 *    serial vs parallel, and warm-store vs cold (store round-trip).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include <coopsim/experiment.hpp>

#include "common/rng.hpp"
#include "sim/min_clock_tree.hpp"

using namespace coopsim;
using namespace coopsim::sim;

// ---------------------------------------------------------------------------
// Tournament tree

namespace
{

/** The pre-tree semantics: first index holding the minimum clock. */
std::uint32_t
refMinCore(const std::vector<Cycle> &clock)
{
    std::uint32_t best = 0;
    for (std::uint32_t c = 1; c < clock.size(); ++c) {
        if (clock[c] < clock[best]) {
            best = c;
        }
    }
    return best;
}

/** 1..17 cores plus the padded, deeper trees of the 32/64-core rows. */
std::vector<std::uint32_t>
treeCoreCounts()
{
    std::vector<std::uint32_t> counts;
    for (std::uint32_t n = 1; n <= 17; ++n) {
        counts.push_back(n);
    }
    for (const std::uint32_t n : {31u, 32u, 33u, 63u, 64u}) {
        counts.push_back(n);
    }
    return counts;
}

} // namespace

TEST(MinClockTree, MatchesLinearScanAcrossCoreCounts)
{
    Rng rng(20260730);
    for (const std::uint32_t n : treeCoreCounts()) {
        // Small value range so ties are common (the scan breaks them
        // toward the lowest index; the tree must agree exactly).
        std::vector<Cycle> clock(n);
        for (Cycle &c : clock) {
            c = rng.nextBelow(8);
        }
        MinClockTree tree(clock);
        ASSERT_EQ(tree.minIndex(), refMinCore(clock)) << "n=" << n;

        for (int step = 0; step < 2000; ++step) {
            auto idx = static_cast<std::uint32_t>(rng.nextBelow(n));
            if (n > 1 && rng.nextBelow(2) == 0) {
                // A leaf other than the winner (the fast-forward path
                // re-updates a core that lost the arbitration).
                while (idx == refMinCore(clock)) {
                    idx = static_cast<std::uint32_t>(rng.nextBelow(n));
                }
            }
            // Mostly forward steps (the event-loop pattern), some ties,
            // occasional large jumps and, rarely, the top of the key
            // range.
            const std::uint64_t kind = rng.nextBelow(64);
            const Cycle value =
                kind == 0       ? MinClockTree::kMaxClock
                : kind % 4 == 1 ? rng.nextBelow(8)
                                : std::min(clock[idx] + rng.nextBelow(3),
                                           MinClockTree::kMaxClock);
            clock[idx] = value;
            tree.update(idx, value);
            ASSERT_EQ(tree.minIndex(), refMinCore(clock))
                << "n=" << n << " step=" << step;
            ASSERT_EQ(tree.clock(idx), value);
        }
    }
}

TEST(MinClockTree, MonotoneEventLoopSequence)
{
    // The exact access pattern System::run() generates: always step
    // the minimum, which then advances by a bounded amount — and,
    // under op sampling, sometimes jumps again by a fast-forward gap
    // after it already lost the arbitration (a second update of a
    // leaf that may no longer be the winner).
    Rng rng(99);
    for (const std::uint32_t n : {3u, 5u, 8u, 16u, 31u, 32u, 33u, 63u,
                                  64u}) {
        std::vector<Cycle> clock(n, 0);
        MinClockTree tree(clock);
        for (int step = 0; step < 5000; ++step) {
            const std::uint32_t c = tree.minIndex();
            ASSERT_EQ(c, refMinCore(clock)) << "n=" << n;
            clock[c] += 1 + rng.nextBelow(20);
            tree.update(c, clock[c]);
            if (rng.nextBelow(8) == 0) {
                clock[c] += rng.nextBelow(200);
                tree.update(c, clock[c]);
            }
        }
        // A core parked at the top of the key range never wins while
        // any other core is below it.
        tree.update(0, MinClockTree::kMaxClock);
        clock[0] = MinClockTree::kMaxClock;
        ASSERT_EQ(tree.minIndex(), refMinCore(clock)) << "n=" << n;
        ASSERT_NE(tree.minIndex(), 0u) << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// Topology table

TEST(Topology, TwoAndFourCoreRowsMatchPaperTable2)
{
    const SystemConfig two = makeSystemConfig(2, "coop", RunScale::Paper);
    EXPECT_EQ(two.num_cores, 2u);
    EXPECT_EQ(two.llc.geometry.size_bytes, 2ull << 20);
    EXPECT_EQ(two.llc.geometry.ways, 8u);
    EXPECT_EQ(two.llc.hit_latency, 15u);

    const SystemConfig four = makeSystemConfig(4, "ucp", RunScale::Paper);
    EXPECT_EQ(four.num_cores, 4u);
    EXPECT_EQ(four.llc.geometry.size_bytes, 4ull << 20);
    EXPECT_EQ(four.llc.geometry.ways, 16u);
    EXPECT_EQ(four.llc.hit_latency, 20u);
}

TEST(Topology, LargeRowsKeepPerCoreScalingRule)
{
    for (const std::uint32_t n : {8u, 16u}) {
        const SystemConfig c =
            makeSystemConfig(n, "coop", RunScale::Paper);
        EXPECT_EQ(c.num_cores, n);
        // 1 MB and 4 ways of LLC per core, as in the paper's rows.
        EXPECT_EQ(c.llc.geometry.size_bytes, std::uint64_t{n} << 20);
        EXPECT_EQ(c.llc.geometry.ways, 4u * n);
        EXPECT_GE(c.llc.geometry.ways, n);
    }
    // Latency grows monotonically with the topology.
    EXPECT_LT(makeSystemConfig(4, "coop", RunScale::Paper).llc.hit_latency,
              makeSystemConfig(8, "coop", RunScale::Paper).llc.hit_latency);
    EXPECT_LT(makeSystemConfig(8, "coop", RunScale::Paper).llc.hit_latency,
              makeSystemConfig(16, "coop", RunScale::Paper).llc.hit_latency);
}

TEST(Topology, OddCoreCountsRoundUpToTheNextRow)
{
    EXPECT_EQ(makeSystemConfig(1, "coop", RunScale::Test)
                  .llc.geometry.ways,
              8u);
    EXPECT_EQ(makeSystemConfig(3, "coop", RunScale::Test)
                  .llc.geometry.ways,
              16u);
    EXPECT_EQ(makeSystemConfig(9, "coop", RunScale::Test)
                  .llc.geometry.ways,
              64u);
}

TEST(Topology, OutOfTableCoreCountsAreFatal)
{
    setThrowOnFatal(true);
    EXPECT_THROW(makeSystemConfig(0, "coop", RunScale::Test),
                 FatalError);
    EXPECT_THROW(makeSystemConfig(65, "coop", RunScale::Test),
                 FatalError);
    setThrowOnFatal(false);
}

TEST(Topology, FewerWaysThanCoresIsFatalWithDiagnostics)
{
    setThrowOnFatal(true);
    llc::LlcConfig config;
    config.geometry = {512ull * 4 * 64, 4, 64}; // 4 ways
    config.num_cores = 8;
    mem::DramModel dram{mem::DramConfig{}};
    try {
        api::makeLlcByName("unmanaged", config, dram);
        FAIL() << "expected a fatal error";
    } catch (const FatalError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("4-way"), std::string::npos) << message;
        EXPECT_NE(message.find("8 cores"), std::string::npos) << message;
    }
    setThrowOnFatal(false);
}

// ---------------------------------------------------------------------------
// Generated heterogeneous mixes

TEST(Workloads, GeneratedMixesAreWellFormedAndRegistered)
{
    for (const auto &[groups, size] :
         {std::pair<const std::vector<trace::WorkloadGroup> &,
                    std::uint32_t>{trace::eightCoreGroups(), 8u},
          {trace::sixteenCoreGroups(), 16u}}) {
        ASSERT_EQ(groups.size(), 6u);
        for (const trace::WorkloadGroup &group : groups) {
            EXPECT_EQ(group.apps.size(), size) << group.name;
            for (const std::string &app : group.apps) {
                trace::specProfile(app); // fatal on unknown names
            }
            // Registered and reachable by name.
            EXPECT_EQ(api::workloadRegistry().get(group.name).name,
                      group.name);
            EXPECT_EQ(trace::groupByName(group.name).name, group.name);
        }
    }
    EXPECT_EQ(api::resolveWorkloads("G8-*").size(), 6u);
    EXPECT_EQ(api::resolveWorkloads("G16-*").size(), 6u);
    // The paper's globs must not pick up the generated groups.
    EXPECT_EQ(api::resolveWorkloads("G2-*").size(), 14u);
    EXPECT_EQ(api::resolveWorkloads("G4-*").size(), 14u);
}

TEST(Workloads, MixTiersAreOrderedByMemoryIntensity)
{
    auto avg_mpki = [](const trace::WorkloadGroup &group) {
        double sum = 0.0;
        for (const std::string &app : group.apps) {
            sum += trace::specProfile(app).table3_mpki;
        }
        return sum / static_cast<double>(group.apps.size());
    };
    for (const char *cores : {"G8", "G16"}) {
        const std::string prefix = cores;
        const double mem =
            avg_mpki(trace::groupByName(prefix + "-mem1"));
        const double mix =
            avg_mpki(trace::groupByName(prefix + "-mix1"));
        const double cpu =
            avg_mpki(trace::groupByName(prefix + "-cpu1"));
        EXPECT_GT(mem, mix);
        EXPECT_GT(mix, cpu);
    }
}

TEST(Workloads, MixGenerationIsDeterministic)
{
    const auto a = trace::heterogeneousMixes(8);
    const auto b = trace::heterogeneousMixes(8);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].apps, b[i].apps);
    }
    // Variants are distinct mixes, not copies.
    EXPECT_NE(a[0].apps, a[1].apps);
}

// ---------------------------------------------------------------------------
// Partitioner algorithms

namespace
{

partition::AppDemand
demandOf(std::vector<double> curve, double accesses)
{
    partition::AppDemand d;
    d.miss_curve = std::move(curve);
    d.accesses = accesses;
    return d;
}

} // namespace

TEST(Partitioner, EqualShareSplitsWithRemainderToLowestIndices)
{
    const partition::Allocation even =
        partition::equalSharePartition(8, 16);
    EXPECT_EQ(even.ways,
              std::vector<std::uint32_t>(8, 2u));
    EXPECT_EQ(even.unallocated, 0u);

    const partition::Allocation odd =
        partition::equalSharePartition(3, 8);
    EXPECT_EQ(odd.ways, (std::vector<std::uint32_t>{3, 3, 2}));
    EXPECT_EQ(odd.unallocated, 0u);
}

TEST(Partitioner, GreedyGrantsByMarginalUtilityAndGatesTheRest)
{
    // App 0 saves 100 misses/way over 4 ways; app 1 saves 10 misses on
    // its second way only. 1000 accesses each; threshold 0.05 demands
    // >= 50 misses/way, so app 1 never qualifies and the cache keeps
    // unallocated (gateable) ways.
    const std::vector<partition::AppDemand> demands = {
        demandOf({500, 400, 300, 200, 100, 100, 100, 100, 100}, 1000),
        demandOf({500, 500, 490, 490, 490, 490, 490, 490, 490}, 1000),
    };
    partition::LookaheadConfig config;
    config.threshold = 0.05;
    const partition::Allocation alloc =
        partition::greedyUtilityPartition(demands, 8, config);
    EXPECT_EQ(alloc.ways[0], 4u); // 1 floor + 3 granted (curve knee)
    EXPECT_EQ(alloc.ways[1], 1u); // floor only
    EXPECT_EQ(alloc.unallocated, 8u - alloc.ways[0] - alloc.ways[1]);

    // Threshold 0 allocates every way that saves anything.
    config.threshold = 0.0;
    const partition::Allocation eager =
        partition::greedyUtilityPartition(demands, 8, config);
    EXPECT_EQ(eager.ways[0], 4u);
    EXPECT_EQ(eager.ways[1], 2u); // the 10-miss second way now passes
    EXPECT_EQ(eager.unallocated, 2u);

    // PaperLiteral mode terminates (it self-unblocks, like the
    // look-ahead implementation) and, being relative rather than
    // access-normalised, grants the below-ratio second way too.
    config.threshold = 0.05;
    config.mode = partition::ThresholdMode::PaperLiteral;
    const partition::Allocation literal =
        partition::greedyUtilityPartition(demands, 8, config);
    EXPECT_EQ(literal.ways[0] + literal.ways[1] + literal.unallocated,
              8u);
    EXPECT_EQ(literal.ways[1], 2u);
}

TEST(Partitioner, DispatchRunsTheSelectedAlgorithm)
{
    const std::vector<partition::AppDemand> demands = {
        demandOf({300, 200, 120, 60, 30, 20, 15, 12, 10}, 800),
        demandOf({400, 350, 310, 280, 255, 235, 220, 210, 205}, 900),
    };
    partition::LookaheadConfig config;
    config.threshold = 0.05;

    const partition::Allocation lookahead = partition::decidePartition(
        partition::Partitioner::Lookahead, demands, 8, config);
    const partition::Allocation direct =
        partition::lookaheadPartition(demands, 8, config);
    EXPECT_EQ(lookahead.ways, direct.ways);
    EXPECT_EQ(lookahead.unallocated, direct.unallocated);

    const partition::Allocation equal = partition::decidePartition(
        partition::Partitioner::EqualShare, demands, 8, config);
    EXPECT_EQ(equal.ways, (std::vector<std::uint32_t>{4, 4}));

    const partition::Allocation greedy = partition::decidePartition(
        partition::Partitioner::GreedyUtility, demands, 8, config);
    const partition::Allocation greedy_direct =
        partition::greedyUtilityPartition(demands, 8, config);
    EXPECT_EQ(greedy.ways, greedy_direct.ways);
}

TEST(Partitioner, RegistryNamesRoundTrip)
{
    EXPECT_EQ(api::partitionerRegistry().get("lookahead"),
              partition::Partitioner::Lookahead);
    EXPECT_EQ(api::partitionerRegistry().get("equalshare"),
              partition::Partitioner::EqualShare);
    EXPECT_EQ(api::partitionerRegistry().get("greedy"),
              partition::Partitioner::GreedyUtility);
    EXPECT_EQ(api::partitionerKeyOf(partition::Partitioner::EqualShare),
              "equalshare");
    setThrowOnFatal(true);
    EXPECT_THROW(api::partitionerRegistry().get("roundrobin"),
                 FatalError);
    setThrowOnFatal(false);
}

// ---------------------------------------------------------------------------
// Spec axes

TEST(SpecAxes, CoresAndPartitionersRoundTripAndExpand)
{
    api::ExperimentSpec spec;
    spec.name = "axes";
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"coop"};
    spec.groups = {"G2-10", "G8-cpu1"};
    spec.cores = {8};
    spec.partitioners = {"lookahead", "equalshare"};
    spec.scale = "test";
    EXPECT_EQ(api::parseSpec(api::formatSpec(spec)), spec);

    // The cores filter drops G2-10; the partitioner axis doubles the
    // remaining group's keys.
    const std::vector<RunKey> keys = api::expandSpec(spec);
    ASSERT_EQ(keys.size(), 2u);
    for (const RunKey &key : keys) {
        EXPECT_EQ(key.name, "G8-cpu1");
        EXPECT_EQ(key.num_cores, 8u);
    }
    EXPECT_EQ(keys[0].partitioner, partition::Partitioner::Lookahead);
    EXPECT_EQ(keys[1].partitioner, partition::Partitioner::EqualShare);

    // RunKey text encoding carries the partitioner.
    const std::string line = api::formatRunKey(keys[1]);
    EXPECT_NE(line.find("partitioner=equalshare"), std::string::npos)
        << line;
    EXPECT_EQ(api::parseRunKey(line), keys[1]);
}

TEST(SpecAxes, ValidationCatchesBadCoresAndPartitioners)
{
    setThrowOnFatal(true);
    {
        api::ExperimentSpec spec;
        spec.layout = "none";
        spec.groups = {"G2-10"};
        spec.cores = {8}; // filters out the only group
        EXPECT_THROW(api::expandSpec(spec), FatalError);
    }
    {
        api::ExperimentSpec spec;
        spec.layout = "none";
        spec.groups = {"G2-10"};
        spec.partitioners = {"roundrobin"};
        EXPECT_THROW(api::expandSpec(spec), FatalError);
    }
    {
        api::ExperimentSpec spec;
        spec.layout = "partitioners";
        spec.groups = {"G2-10"};
        spec.partitioners = {"lookahead"};
        spec.baseline = "equalshare"; // not on the axis
        EXPECT_THROW(api::expandSpec(spec), FatalError);
    }
    setThrowOnFatal(false);
}

// ---------------------------------------------------------------------------
// 8-core determinism: serial vs parallel, warm store vs cold

namespace
{

/** The 8-core partitioner sweep the determinism checks run. */
std::vector<RunKey>
eightCoreSweep()
{
    api::ExperimentSpec spec;
    spec.name = "det8";
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"coop", "ucp"};
    spec.groups = {"G8-cpu1"};
    spec.partitioners = {"lookahead", "equalshare", "greedy"};
    spec.scale = "test";
    return api::expandSpec(spec);
}

} // namespace

TEST(EightCore, SpecSweepIsBitIdenticalSerialVsParallel)
{
    const std::vector<RunKey> keys = eightCoreSweep();
    ASSERT_EQ(keys.size(), 6u);

    RunExecutor serial(1);
    std::vector<std::string> serial_lines;
    for (const RunKey &key : keys) {
        serial_lines.push_back(
            store::formatResult(serial.run(key)));
    }

    RunExecutor parallel(4);
    parallel.prefetch(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        // The store line encodes every RunResult field bit-exactly, so
        // equal lines mean bit-identical results.
        EXPECT_EQ(serial_lines[i],
                  store::formatResult(parallel.run(keys[i])));
    }
}

TEST(EightCore, WarmStoreRerunIsBitIdenticalAndRunsNothing)
{
    const std::vector<RunKey> keys = eightCoreSweep();

    // Cold pass records into the store.
    auto result_store = std::make_shared<store::ResultStore>();
    std::vector<std::string> cold_lines;
    {
        RunExecutor cold(2);
        cold.attachStore(result_store);
        cold.prefetch(keys);
        for (const RunKey &key : keys) {
            cold_lines.push_back(store::formatResult(cold.run(key)));
        }
        EXPECT_EQ(cold.stats().simulations, keys.size());
    }
    EXPECT_EQ(result_store->size(), keys.size());

    // Warm pass: served entirely from the store, bit-identically.
    RunExecutor warm(2);
    warm.attachStore(result_store);
    warm.prefetch(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(cold_lines[i],
                  store::formatResult(warm.run(keys[i])));
    }
    EXPECT_EQ(warm.stats().simulations, 0u);
    EXPECT_EQ(warm.stats().store_hits, keys.size());
    EXPECT_EQ(warm.activeWorkers(), 0u);
}
