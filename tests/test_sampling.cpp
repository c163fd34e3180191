/**
 * @file
 * Tests for the statistical sampling estimators (src/sampling/):
 *
 *  - exact-mode identity: an explicit `sampling exact` axis expands to
 *    the same canonical keys as a spec with no sampling axis at all,
 *    and the executor produces byte-equal result lines over the
 *    fig05-representative sweep — sampling must be invisible until
 *    asked for;
 *  - differential accuracy: setop-sampled weighted speedups fall
 *    inside their own reported confidence interval against the exact
 *    reference over {G2-1, G4-1, G8-mem1, G32-mix1} x {coop, ucp} x
 *    {lookahead, greedy} at test scale;
 *  - the samp_windows/samp_ci result-line fields round-trip through
 *    store::formatResult/tryParseResult, legacy (pre-sampling) lines
 *    still load, and malformed CI lists are rejected;
 *  - sampled RunKeys round-trip through formatRunKey/parseRunKey and
 *    pre-sampling key lines still parse as exact;
 *  - stats::Average's Welford variance/stdError match a two-pass
 *    reference, including the frequency-weighted path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include <coopsim/experiment.hpp>

#include "sampling/sampling.hpp"

using namespace coopsim;
using namespace coopsim::sim;

// ---------------------------------------------------------------------------
// Exact mode is the pre-sampling simulator

namespace
{

/** The fig05-representative sweep (same shape as test_banked's). */
api::ExperimentSpec
fig05Spec()
{
    api::ExperimentSpec spec;
    spec.name = "sampling-exact-diff";
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"coop", "ucp"};
    spec.groups = {"G2-10"};
    spec.partitioners = {"lookahead", "equalshare", "greedy"};
    spec.scale = "test";
    return spec;
}

} // namespace

TEST(Sampling, ExactAxisIsByteIdenticalOverFig05Sweep)
{
    // A spec that never mentions sampling and one that pins the axis
    // to "exact" must expand to identical canonical key lines (the
    // exact default adds no key fields), and those keys must execute
    // to byte-equal result lines with no samp_ trailer.
    const std::vector<RunKey> plain = api::expandSpec(fig05Spec());
    api::ExperimentSpec explicit_spec = fig05Spec();
    explicit_spec.sampling = {"exact"};
    const std::vector<RunKey> exact = api::expandSpec(explicit_spec);

    ASSERT_EQ(plain.size(), exact.size());
    RunExecutor executor(4);
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const std::string plain_key = api::formatRunKey(plain[i]);
        EXPECT_EQ(plain_key, api::formatRunKey(exact[i]));
        EXPECT_EQ(plain_key.find("sampling="), std::string::npos)
            << plain_key;
        const std::string line =
            store::formatResult(executor.run(plain[i]));
        EXPECT_EQ(line, store::formatResult(executor.run(exact[i])));
        EXPECT_EQ(line.find("samp_windows"), std::string::npos) << line;
    }
}

TEST(Sampling, ResolveFillsEstimatorDefaults)
{
    using sampling::Mode;
    const sampling::Resolved exact = sampling::resolve(Mode::Exact);
    EXPECT_EQ(exact.set_period, 1u);
    EXPECT_EQ(exact.windows, 0u);
    EXPECT_FALSE(exact.fast_forward);

    const sampling::Resolved set = sampling::resolve(Mode::Set);
    EXPECT_EQ(set.set_period, sampling::kDefaultSetPeriod);
    EXPECT_EQ(set.windows, sampling::kDefaultOpWindows);
    EXPECT_FALSE(set.fast_forward);

    const sampling::Resolved op = sampling::resolve(Mode::Op);
    EXPECT_EQ(op.set_period, 1u);
    EXPECT_EQ(op.windows, sampling::kDefaultOpWindows);
    EXPECT_TRUE(op.fast_forward);

    const sampling::Resolved setop = sampling::resolve(Mode::SetOp);
    EXPECT_EQ(setop.set_period, sampling::kDefaultSetPeriod);
    EXPECT_EQ(setop.windows, sampling::kDefaultOpWindows);
    EXPECT_TRUE(setop.fast_forward);
}

// ---------------------------------------------------------------------------
// Differential: sampled estimates land inside their own reported CI

TEST(Sampling, SampledSpeedupsFallInsideTheirReportedCi)
{
    // The estimators may be biased (that is the price of 10-100x), but
    // they must KNOW how biased: every sampled weighted speedup has to
    // cover the exact reference within the CI the run itself reports.
    // setop composes both estimators, so its CI covers both biases.
    api::ExperimentSpec spec;
    spec.name = "sampling-ci-diff";
    spec.layout = "none";
    spec.schemes = {"coop", "ucp"};
    spec.groups = {"G2-1", "G4-1", "G8-mem1", "G32-mix1"};
    spec.cores = {2, 4, 8, 32};
    spec.partitioners = {"lookahead", "greedy"};
    spec.sampling = {"exact", "setop"};
    spec.scale = "test";
    const api::ExperimentResults results = api::runExperiment(spec);

    for (const trace::WorkloadGroup &group : results.groups()) {
        for (const std::string &scheme : spec.schemes) {
            for (const std::string &part : spec.partitioners) {
                api::Cell cell;
                cell.group = group.name;
                cell.scheme = scheme;
                cell.partitioner = part;
                cell.sampling = "exact";
                const double exact_ws = results.weightedSpeedup(cell);
                EXPECT_EQ(results.weightedSpeedupCi(cell), 0.0);

                cell.sampling = "setop";
                const double sampled_ws = results.weightedSpeedup(cell);
                const double ci = results.weightedSpeedupCi(cell);
                EXPECT_GT(ci, 0.0);
                EXPECT_LE(std::abs(sampled_ws - exact_ws), ci)
                    << group.name << " " << scheme << " " << part
                    << ": exact=" << exact_ws
                    << " sampled=" << sampled_ws << " ci=" << ci;
            }
        }
    }
}

TEST(Sampling, SampledRunsCarryWindowsAndPerAppCis)
{
    RunKey key;
    key.scheme = "coop";
    key.name = "G2-1";
    key.num_cores = 2;
    key.scale = RunScale::Test;
    key.sampling = sampling::Mode::SetOp;

    const RunResult result = executeRun(key);
    EXPECT_GT(result.sample_windows, 0u);
    ASSERT_EQ(result.apps.size(), 2u);
    for (const AppResult &app : result.apps) {
        EXPECT_GT(app.ipc, 0.0) << app.name;
        EXPECT_GT(app.ipc_ci, 0.0) << app.name;
    }
    const std::string line = store::formatResult(result);
    EXPECT_NE(line.find("samp_windows"), std::string::npos);
    EXPECT_NE(line.find("samp_ci"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Store round-trip

TEST(Sampling, ResultLineCiFieldsRoundTrip)
{
    RunKey key;
    key.scheme = "ucp";
    key.name = "G2-3";
    key.num_cores = 2;
    key.scale = RunScale::Test;
    key.sampling = sampling::Mode::Set;
    const RunResult result = executeRun(key);
    ASSERT_GT(result.sample_windows, 0u);

    const std::string line = store::formatResult(result);
    RunResult parsed;
    ASSERT_TRUE(store::tryParseResult(line, parsed)) << line;
    EXPECT_EQ(parsed.sample_windows, result.sample_windows);
    ASSERT_EQ(parsed.apps.size(), result.apps.size());
    for (std::size_t i = 0; i < result.apps.size(); ++i) {
        EXPECT_EQ(parsed.apps[i].ipc_ci, result.apps[i].ipc_ci);
    }
    // The re-encoding is byte-stable too.
    EXPECT_EQ(line, store::formatResult(parsed));
}

TEST(Sampling, LegacyResultLinesLoadWithZeroCi)
{
    // A pre-sampling line (no samp_ trailer) must parse, reporting no
    // windows and exact (zero) CIs.
    RunKey key;
    key.scheme = "coop";
    key.name = "G2-1";
    key.num_cores = 2;
    key.scale = RunScale::Test;
    const std::string line = store::formatResult(executeRun(key));
    ASSERT_EQ(line.find("samp_windows"), std::string::npos);

    RunResult parsed;
    ASSERT_TRUE(store::tryParseResult(line, parsed));
    EXPECT_EQ(parsed.sample_windows, 0u);
    for (const AppResult &app : parsed.apps) {
        EXPECT_EQ(app.ipc_ci, 0.0);
    }
}

TEST(Sampling, MalformedCiListsAreRejected)
{
    RunKey key;
    key.scheme = "coop";
    key.name = "G2-1";
    key.num_cores = 2;
    key.scale = RunScale::Test;
    key.sampling = sampling::Mode::Set;
    const std::string line = store::formatResult(executeRun(key));

    RunResult parsed;
    // One CI entry per app is mandatory: drop the second app's entry.
    const std::size_t pos = line.rfind(';');
    ASSERT_NE(pos, std::string::npos);
    EXPECT_FALSE(
        store::tryParseResult(line.substr(0, pos), parsed));
    // Trailing garbage after the samp trailer is rejected.
    EXPECT_FALSE(store::tryParseResult(line + " extra=1", parsed));
}

// ---------------------------------------------------------------------------
// RunKey round-trip

TEST(Sampling, SampledRunKeysRoundTrip)
{
    using sampling::Mode;
    for (const Mode mode : {Mode::Set, Mode::Op, Mode::SetOp}) {
        RunKey key;
        key.scheme = "coop";
        key.name = "G4-2";
        key.num_cores = 4;
        key.sampling = mode;
        const std::string line = api::formatRunKey(key);
        EXPECT_NE(line.find(" sampling=" + api::samplingKeyOf(mode) +
                            " sample-period=0 op-windows=0"),
                  std::string::npos)
            << line;
        EXPECT_EQ(api::parseRunKey(line), key) << line;
    }
}

TEST(Sampling, PreSamplingKeyLinesParseAsExact)
{
    RunKey key;
    key.scheme = "coop";
    key.name = "G2-1";
    key.num_cores = 2;
    const std::string line = api::formatRunKey(key);
    ASSERT_EQ(line.find("sampling="), std::string::npos) << line;

    RunKey parsed;
    ASSERT_TRUE(api::tryParseRunKey(line, parsed));
    EXPECT_EQ(parsed.sampling, sampling::Mode::Exact);
    EXPECT_EQ(parsed, key);
}

TEST(Sampling, SpecAxisRoundTripsThroughFormatParse)
{
    api::ExperimentSpec spec = fig05Spec();
    spec.sampling = {"exact", "setop"};
    const api::ExperimentSpec parsed =
        api::parseSpec(api::formatSpec(spec));
    EXPECT_EQ(parsed.sampling, spec.sampling);
    EXPECT_EQ(parsed, spec);
}

// ---------------------------------------------------------------------------
// Welford variance in stats::Average

TEST(Sampling, WelfordVarianceMatchesTwoPassReference)
{
    const std::vector<double> values = {0.31, 1.7, 0.92, 2.4,
                                        0.55, 1.1, 0.08, 3.2};
    stats::Average avg;
    double sum = 0.0;
    for (const double v : values) {
        avg.sample(v);
        sum += v;
    }
    const double mean = sum / static_cast<double>(values.size());
    double ss = 0.0;
    for (const double v : values) {
        ss += (v - mean) * (v - mean);
    }
    const double population = ss / static_cast<double>(values.size());
    const double unbiased =
        ss / static_cast<double>(values.size() - 1);

    EXPECT_NEAR(avg.mean(), mean, 1e-12);
    EXPECT_NEAR(avg.variance(), population, 1e-12);
    EXPECT_NEAR(avg.sampleVariance(), unbiased, 1e-12);
    EXPECT_NEAR(
        avg.stdError(),
        std::sqrt(unbiased / static_cast<double>(values.size())),
        1e-12);
}

TEST(Sampling, WeightedWelfordMatchesRepetition)
{
    // Frequency weights: sample(v, 3) must equal sampling v three
    // times (the West extension treats the weight as a repeat count).
    stats::Average weighted;
    weighted.sample(1.5, 3.0);
    weighted.sample(4.0, 2.0);

    stats::Average repeated;
    for (int i = 0; i < 3; ++i) {
        repeated.sample(1.5);
    }
    for (int i = 0; i < 2; ++i) {
        repeated.sample(4.0);
    }

    EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-12);
    EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-12);

    stats::Average reset_check;
    reset_check.sample(7.0);
    reset_check.reset();
    EXPECT_EQ(reset_check.count(), 0u);
    EXPECT_EQ(reset_check.variance(), 0.0);
    EXPECT_EQ(reset_check.stdError(), 0.0);
}
