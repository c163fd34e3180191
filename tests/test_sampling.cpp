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
 *    reference, including the frequency-weighted path;
 *  - sampling::WindowSchedule, on cores placed by fastForward(): detail
 *    regions tile the global clock from the epoch-aligned anchor,
 *    every epoch holds a region over a sweep of CPI estimates at the
 *    test, bench and paper epoch lengths (two counts, one apart, when
 *    the period does not divide the epoch), the op scale factors
 *    cover the final partial windows, a core short of its quota jumps
 *    exactly onto it and takes no sample after it, and the backlog is
 *    carried once per boundary, by the last core to close it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <coopsim/experiment.hpp>

#include "core/trace_core.hpp"
#include "llc/shared_cache.hpp"
#include "mem/dram.hpp"
#include "sampling/sampling.hpp"
#include "sampling/window_schedule.hpp"

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
    const api::ExperimentResults results(spec);

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

// ---------------------------------------------------------------------------
// The op-sampling window schedule

namespace
{

using sampling::WindowSchedule;

/** An LLC that records the backlog carries asked of it. The cores of
 *  these tests never step, so it serves no access. */
class CarryLog final : public llc::BaseLlc
{
  public:
    explicit CarryLog(mem::DramModel &dram)
        : BaseLlc(tinyConfig(), dram, false)
    {
    }

    llc::LlcAccess access(CoreId, Addr, AccessType, Cycle) override
    {
        return {};
    }
    std::vector<std::uint32_t> allocation() const override { return {}; }
    llc::Scheme scheme() const override { return llc::Scheme::Unmanaged; }
    void carryBacklog(Cycle from, Cycle delta) override
    {
        carries.emplace_back(from, delta);
    }

    std::vector<std::pair<Cycle, Cycle>> carries;

  private:
    static llc::LlcConfig tinyConfig()
    {
        llc::LlcConfig config;
        config.geometry = {16 * 4 * 64, 4, 64};
        config.num_cores = 1;
        return config;
    }
};

/** A stream the cores never read. */
class NoOps final : public core::OpStream
{
  public:
    std::size_t nextBatch(core::MemOp *, std::size_t) override
    {
        ADD_FAILURE() << "a schedule test stepped a core";
        return 0;
    }
};

/**
 * The cores of a measurement phase, placed by fastForward() alone: at
 * @p clocks[c] cycles after retiring @p clocks[c] / cpi instructions,
 * measuring from there, as warm-up leaves them.
 */
struct Phase
{
    Phase(const std::vector<Cycle> &clocks, double cpi) : llc(dram)
    {
        for (std::uint32_t c = 0; c < clocks.size(); ++c) {
            cores.push_back(std::make_unique<core::TraceCore>(
                c, core::CoreConfig{}, llc, stream));
            cores[c]->fastForward(
                static_cast<InstCount>(static_cast<double>(clocks[c]) / cpi),
                clocks[c]);
            cores[c]->startMeasurement();
        }
    }

    mem::DramModel dram;
    CarryLog llc;
    NoOps stream;
    std::vector<std::unique_ptr<core::TraceCore>> cores;
};

/** Runs @p core to the end of its detail region at @p ipc, as the
 *  measurement loop's quanta would. */
void
runToBound(const WindowSchedule &windows, core::TraceCore &core, double ipc)
{
    const Cycle cycles = windows.bound(core.id()) - core.cycle();
    core.fastForward(static_cast<InstCount>(
                         std::llround(static_cast<double>(cycles) * ipc)),
                     cycles);
}

/** Detail regions starting in each of the first @p epochs epochs. */
std::vector<Cycle>
regionsPerEpoch(const WindowSchedule::Layout &layout, Cycle epoch,
                std::uint64_t epochs)
{
    const auto starts_before = [&](Cycle t) {
        return (t + layout.period - 1) / layout.period;
    };
    std::vector<Cycle> counts;
    for (std::uint64_t e = 0; e < epochs; ++e) {
        counts.push_back(starts_before((e + 1) * epoch) -
                         starts_before(e * epoch));
    }
    return counts;
}

constexpr Cycle kTestEpoch = 60'000;
constexpr InstCount kTestInsts = 400'000;

} // namespace

TEST(WindowSchedule, AnExactScheduleBoundsNothing)
{
    Phase phase({130'500, 130'100}, 2.0);
    WindowSchedule windows(sampling::resolve(sampling::Mode::Exact),
                           kTestEpoch, kTestInsts, 130'500, phase.cores,
                           phase.dram, phase.llc);
    windows.finish(phase.cores);
    for (std::uint32_t c = 0; c < 2; ++c) {
        EXPECT_EQ(windows.bound(c), kCycleMax);
        EXPECT_EQ(windows.opScale(c), 1.0);
        EXPECT_EQ(windows.ipcCi(c, 0.5, 128), 0.0);
    }
    EXPECT_EQ(windows.opScaleTotal(), 1.0);
    EXPECT_EQ(windows.samples(), 0u);
}

TEST(WindowSchedule, DetailRegionsTileTheGlobalClockFromTheEpochAnchor)
{
    // Warm-up ends with the cores a few hundred cycles apart, inside
    // the third epoch, at CPI 0.7: the anchor is that epoch's start,
    // which the 8,571-cycle period does not divide. Core 2 sits exactly
    // on the end of the region [128,571, 129,106).
    const std::vector<Cycle> clocks = {130'500, 130'100, 129'106};
    constexpr Cycle kAnchor = 120'000;
    Phase phase(clocks, 0.7);
    const sampling::Resolved op = sampling::resolve(sampling::Mode::Op);
    WindowSchedule windows(op, kTestEpoch, kTestInsts, 130'500,
                           phase.cores, phase.dram, phase.llc);
    const WindowSchedule::Layout layout =
        WindowSchedule::layout(op, kTestEpoch, kTestInsts, 0.7);
    ASSERT_EQ(layout.period, 8'571u);
    ASSERT_EQ(layout.detail, 8'571u / sampling::kDetailDivisor);

    // A quota no window reaches: every window is sampled, no jump is
    // capped.
    constexpr InstCount kQuota = 100'000'000;
    std::vector<InstCount> detail(clocks.size(), 0);
    for (std::uint32_t c = 0; c < clocks.size(); ++c) {
        core::TraceCore &core = *phase.cores[c];
        // The first region end strictly ahead of the clock.
        const Cycle first = windows.bound(c);
        EXPECT_EQ((first - kAnchor - layout.detail) % layout.period, 0u);
        EXPECT_GT(first, core.cycle());
        EXPECT_LE(first - core.cycle(), layout.period);
        for (int window = 0; window < 6; ++window) {
            const Cycle end = windows.bound(c);
            const InstCount start = core.retired();
            runToBound(windows, core, 0.5);
            detail[c] += core.retired() - start;
            windows.close(core, kQuota);
            // The gap is skipped up to the next region's start, and
            // the next region ends a detail length later.
            EXPECT_EQ(core.cycle(), end - layout.detail + layout.period);
            EXPECT_EQ(windows.bound(c), end + layout.period);
        }
        // The phase ends inside a region: a partial window.
        core.fastForward(100, 200);
        detail[c] += 100;
    }
    windows.finish(phase.cores);
    EXPECT_EQ(windows.samples(), 18u);
    // Counters scale by measured over detail instructions, final
    // partial windows included.
    InstCount measured_total = 0;
    InstCount detail_total = 0;
    for (std::uint32_t c = 0; c < clocks.size(); ++c) {
        const InstCount measured = phase.cores[c]->measuredInsts();
        EXPECT_DOUBLE_EQ(windows.opScale(c),
                         static_cast<double>(measured) /
                             static_cast<double>(detail[c]));
        measured_total += measured;
        detail_total += detail[c];
    }
    EXPECT_DOUBLE_EQ(windows.opScaleTotal(),
                     static_cast<double>(measured_total) /
                         static_cast<double>(detail_total));
}

TEST(WindowSchedule, EveryEpochHoldsADetailRegionAcrossCpiEstimates)
{
    struct Scale
    {
        const char *name;
        Cycle epoch;
        InstCount insts;
    };
    const Scale scales[] = {{"test", kTestEpoch, kTestInsts},
                            {"bench", 300'000, 8'000'000},
                            {"paper", 5'000'000, 1'000'000'000}};
    for (const sampling::Mode mode :
         {sampling::Mode::Set, sampling::Mode::Op}) {
        const sampling::Resolved estimator = sampling::resolve(mode);
        for (const Scale &scale : scales) {
            for (double cpi = 0.05; cpi < 400.0; cpi *= 1.07) {
                const WindowSchedule::Layout layout = WindowSchedule::layout(
                    estimator, scale.epoch, scale.insts, cpi);
                ASSERT_GE(layout.detail, 1u);
                ASSERT_LE(layout.detail, layout.period);
                // Over the epochs the phase is expected to span.
                const auto epochs = static_cast<std::uint64_t>(
                    static_cast<double>(scale.insts) * cpi /
                    static_cast<double>(scale.epoch)) + 1;
                const std::vector<Cycle> counts = regionsPerEpoch(
                    layout, scale.epoch, std::min<std::uint64_t>(epochs, 4096));
                ASSERT_GE(*std::min_element(counts.begin(), counts.end()), 1u)
                    << scale.name << " cpi=" << cpi;
            }
        }
    }
}

TEST(WindowSchedule, AnEpochThePeriodDoesNotDivideHoldsADifferentCount)
{
    // 32 windows over 400 k instructions at CPI 0.7 are 6.86 per
    // 60,000-cycle epoch, rounded to 7: a period of 8,571 cycles, which
    // leaves 3 cycles of each epoch over. Region starts drift across
    // the epoch boundaries, so epochs hold 8 regions, then 7.
    const WindowSchedule::Layout layout = WindowSchedule::layout(
        sampling::resolve(sampling::Mode::Op), kTestEpoch, kTestInsts, 0.7);
    ASSERT_EQ(layout.period, 8'571u);
    const std::vector<Cycle> counts = regionsPerEpoch(layout, kTestEpoch, 20);
    EXPECT_EQ(*std::min_element(counts.begin(), counts.end()), 7u);
    EXPECT_EQ(*std::max_element(counts.begin(), counts.end()), 8u);
}

TEST(WindowSchedule, ACoreShortOfItsQuotaJumpsExactlyOntoIt)
{
    Phase phase({130'500}, 2.0);
    core::TraceCore &core = *phase.cores[0];
    WindowSchedule windows(sampling::resolve(sampling::Mode::Op),
                           kTestEpoch, kTestInsts, 130'500, phase.cores,
                           phase.dram, phase.llc);
    runToBound(windows, core, 0.5);
    // The gap would extrapolate thousands of instructions at IPC 0.5;
    // the quota is 10 away.
    const InstCount quota = core.retired() + 10;
    const Cycle before = core.cycle();
    windows.close(core, quota);
    EXPECT_EQ(core.retired(), quota);
    EXPECT_EQ(core.cycle(), before + 20); // 10 instructions at IPC 0.5
    // The core sits in the gap: its next region is simulated in detail
    // from there.
    EXPECT_GT(windows.bound(0), core.cycle());

    // A core already past its quota jumps the whole gap.
    runToBound(windows, core, 0.5);
    const Cycle end = windows.bound(0);
    windows.close(core, kInstMax);
    EXPECT_EQ(core.cycle() % 30'000, 0u);
    EXPECT_GT(core.cycle(), end);
    // Only the window closed short of the quota is an IPC sample.
    EXPECT_EQ(windows.samples(), 1u);
}

TEST(WindowSchedule, TheBacklogIsCarriedOncePerBoundaryAfterTheLastCloser)
{
    Phase phase({130'500, 130'100, 130'350}, 2.0);
    const sampling::Resolved op = sampling::resolve(sampling::Mode::Op);
    WindowSchedule windows(op, kTestEpoch, kTestInsts, 130'500,
                           phase.cores, phase.dram, phase.llc);
    const WindowSchedule::Layout layout =
        WindowSchedule::layout(op, kTestEpoch, kTestInsts, 2.0);
    const std::uint32_t orders[][3] = {{0, 2, 1}, {2, 1, 0}, {1, 0, 2}};
    for (const auto &order : orders) {
        const Cycle boundary = windows.bound(0);
        for (std::uint32_t i = 0; i < 3; ++i) {
            core::TraceCore &core = *phase.cores[order[i]];
            ASSERT_EQ(windows.bound(order[i]), boundary);
            runToBound(windows, core, 0.5);
            const std::size_t carried = phase.llc.carries.size();
            windows.close(core, kInstMax);
            if (i < 2) {
                EXPECT_EQ(phase.llc.carries.size(), carried);
            } else {
                ASSERT_EQ(phase.llc.carries.size(), carried + 1);
                EXPECT_EQ(phase.llc.carries.back(),
                          std::make_pair(boundary,
                                         layout.period - layout.detail));
            }
        }
    }
    EXPECT_EQ(phase.llc.carries.size(), 3u);
}
