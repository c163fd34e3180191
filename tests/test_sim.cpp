/**
 * @file
 * Tests for the simulation driver: configurations, metrics, the
 * results view over the executor.
 */

#include <gtest/gtest.h>

#include <coopsim/experiment.hpp>

#include "sim/metrics.hpp"

using namespace coopsim;
using namespace coopsim::sim;

TEST(SystemConfigs, TwoCoreMatchesPaperTable2)
{
    const SystemConfig c =
        makeSystemConfig(2, "coop", RunScale::Paper);
    EXPECT_EQ(c.num_cores, 2u);
    EXPECT_EQ(c.llc.geometry.size_bytes, 2ull << 20);
    EXPECT_EQ(c.llc.geometry.ways, 8u);
    EXPECT_EQ(c.llc.geometry.block_bytes, 64u);
    EXPECT_EQ(c.llc.hit_latency, 15u);
    EXPECT_EQ(c.epoch_cycles, 5'000'000u);
    EXPECT_EQ(c.insts_per_app, 1'000'000'000u);
    EXPECT_EQ(c.core.width, 4u);
    EXPECT_EQ(c.core.rob, 128u);
    EXPECT_EQ(c.core.l1.size_bytes, 32ull << 10);
    EXPECT_EQ(c.core.l1.ways, 4u);
    EXPECT_EQ(c.dram.banks, 8u);
    EXPECT_EQ(c.dram.access_latency, 400u);
    EXPECT_EQ(c.dram.max_outstanding, 64u);
}

TEST(SystemConfigs, FourCoreMatchesPaperTable2)
{
    const SystemConfig c =
        makeSystemConfig(4, "ucp", RunScale::Paper);
    EXPECT_EQ(c.num_cores, 4u);
    EXPECT_EQ(c.llc.geometry.size_bytes, 4ull << 20);
    EXPECT_EQ(c.llc.geometry.ways, 16u);
    EXPECT_EQ(c.llc.hit_latency, 20u);
}

TEST(SystemConfigs, ReducedScalesShrinkSetsNotWays)
{
    const SystemConfig paper =
        makeSystemConfig(2, "coop", RunScale::Paper);
    const SystemConfig bench =
        makeSystemConfig(2, "coop", RunScale::Bench);
    EXPECT_EQ(bench.llc.geometry.ways, paper.llc.geometry.ways);
    EXPECT_LT(bench.llc.geometry.size_bytes,
              paper.llc.geometry.size_bytes);
    EXPECT_LT(bench.insts_per_app, paper.insts_per_app);
    EXPECT_LT(bench.epoch_cycles, paper.epoch_cycles);
    // The epoch:instruction ratio stays within the same order.
    const double paper_ratio =
        static_cast<double>(paper.epoch_cycles) /
        static_cast<double>(paper.insts_per_app);
    const double bench_ratio =
        static_cast<double>(bench.epoch_cycles) /
        static_cast<double>(bench.insts_per_app);
    EXPECT_LT(bench_ratio / paper_ratio, 10.0);
    EXPECT_GT(bench_ratio / paper_ratio, 0.1);
}

TEST(Metrics, WeightedSpeedupIsEquationOne)
{
    RunResult shared;
    AppResult a;
    a.ipc = 0.5;
    AppResult b;
    b.ipc = 1.0;
    shared.apps = {a, b};
    EXPECT_DOUBLE_EQ(weightedSpeedup(shared, {1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(weightedSpeedup(shared, {0.5, 1.0}), 2.0);
}

TEST(Metrics, Normalisation)
{
    EXPECT_DOUBLE_EQ(normalizeTo(3.0, 2.0), 1.5);
    const auto out = normalizeSeries({2.0, 6.0}, {4.0, 3.0});
    EXPECT_DOUBLE_EQ(out[0], 0.5);
    EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(Cli, ParseCliScaleFlags)
{
    const char *full[] = {"bench", "--full"};
    EXPECT_EQ(api::parseCli(2, const_cast<char **>(full),
                            api::kBenchFlags, nullptr)
                  .scale,
              RunScale::Paper);
    const char *test_scale[] = {"bench", "--scale=test"};
    EXPECT_EQ(api::parseCli(2, const_cast<char **>(test_scale),
                            api::kBenchFlags, nullptr)
                  .scale,
              RunScale::Test);
    const char *none[] = {"bench"};
    EXPECT_EQ(api::parseCli(1, const_cast<char **>(none),
                            api::kBenchFlags, nullptr)
                  .scale,
              RunScale::Bench);
}

namespace
{

/** A test-scale coop sweep of G2-10 over two thresholds. */
api::ExperimentResults
thresholdResults()
{
    api::ExperimentSpec spec;
    spec.layout = "none";
    spec.groups = {"G2-10"};
    spec.thresholds = {0.05, 0.2};
    spec.scale = "test";
    return api::ExperimentResults(spec);
}

} // namespace

TEST(Results, DistinctCellsAreDistinctRuns)
{
    const api::ExperimentResults results = thresholdResults();
    api::Cell a;
    a.group = "G2-10";
    api::Cell b = a;
    b.threshold = 0.2;
    EXPECT_NE(&results.result(a), &results.result(b));
}

TEST(Results, SoloIpcIsPositiveAndCached)
{
    const api::ExperimentResults results = thresholdResults();
    const double ipc = results.soloIpc("sjeng", 2);
    EXPECT_GT(ipc, 0.0);
    EXPECT_LE(ipc, 4.0); // bounded by the issue width
    EXPECT_EQ(&results.soloResult("sjeng", 2),
              &sim::RunExecutor::instance().run(
                  api::soloRunKey(results.spec(), "sjeng", 2)));
}

TEST(System, RunProducesConsistentResults)
{
    SystemConfig config =
        makeSystemConfig(2, "coop", RunScale::Test);
    System system(config, trace::groupProfiles(
                              trace::groupByName("G2-10")));
    const RunResult result = system.run();

    ASSERT_EQ(result.apps.size(), 2u);
    for (const AppResult &app : result.apps) {
        EXPECT_GE(app.insts, config.insts_per_app);
        EXPECT_GT(app.ipc, 0.0);
        EXPECT_LE(app.ipc, 4.0);
        EXPECT_EQ(app.llc_hits + app.llc_misses, app.llc_accesses);
        EXPECT_GT(app.llc_accesses, 0u);
    }
    EXPECT_GT(result.total_cycles, 0u);
    EXPECT_GT(result.dynamic_energy_nj, 0.0);
    EXPECT_GT(result.static_energy_nj, 0.0);
    EXPECT_GT(result.avg_ways_probed, 0.0);
    EXPECT_LE(result.avg_ways_probed, 8.0);
    EXPECT_GT(result.epochs, 0u);
}

TEST(System, DeterministicAcrossIdenticalRuns)
{
    SystemConfig config =
        makeSystemConfig(2, "ucp", RunScale::Test);
    const auto profiles =
        trace::groupProfiles(trace::groupByName("G2-11"));
    System a(config, profiles);
    System b(config, profiles);
    const RunResult ra = a.run();
    const RunResult rb = b.run();
    EXPECT_EQ(ra.total_cycles, rb.total_cycles);
    for (std::size_t i = 0; i < ra.apps.size(); ++i) {
        EXPECT_DOUBLE_EQ(ra.apps[i].ipc, rb.apps[i].ipc);
        EXPECT_EQ(ra.apps[i].llc_misses, rb.apps[i].llc_misses);
    }
    EXPECT_DOUBLE_EQ(ra.dynamic_energy_nj, rb.dynamic_energy_nj);
}

TEST(System, SeedChangesTheRun)
{
    SystemConfig config =
        makeSystemConfig(2, "fairshare", RunScale::Test);
    const auto profiles =
        trace::groupProfiles(trace::groupByName("G2-11"));
    System a(config, profiles);
    config.seed = 777;
    System b(config, profiles);
    EXPECT_NE(a.run().total_cycles, b.run().total_cycles);
}

TEST(System, MismatchedAppCountIsFatal)
{
    setThrowOnFatal(true);
    SystemConfig config =
        makeSystemConfig(2, "fairshare", RunScale::Test);
    EXPECT_THROW(System(config, {trace::specProfile("lbm")}),
                 FatalError);
    setThrowOnFatal(false);
}

TEST(System, FourCoreRunsToCompletion)
{
    SystemConfig config =
        makeSystemConfig(4, "coop", RunScale::Test);
    System system(config, trace::groupProfiles(
                              trace::groupByName("G4-3")));
    const RunResult result = system.run();
    EXPECT_EQ(result.apps.size(), 4u);
    EXPECT_LE(result.avg_ways_probed, 16.0);
}
