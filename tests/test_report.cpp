/**
 * @file
 * Tests for the reporting module and the drowsy-gating extension.
 */

#include <gtest/gtest.h>

#include "api/spec.hpp"
#include "llc/schemes.hpp"
#include "sim/report.hpp"

using namespace coopsim;
using namespace coopsim::sim;

namespace
{

RunResult
sampleResult()
{
    RunResult r;
    AppResult a;
    a.name = "lbm";
    a.ipc = 0.5;
    a.insts = 1000;
    a.cycles = 2000;
    a.llc_accesses = 100;
    a.llc_hits = 40;
    a.llc_misses = 60;
    a.mpki = 60.0;
    r.apps.push_back(a);
    r.total_cycles = 2000;
    r.dynamic_energy_nj = 12.5;
    r.static_energy_nj = 7.25;
    r.avg_ways_probed = 3.0;
    r.repartitions = 2;
    r.flushed_lines = 17;
    return r;
}

} // namespace

TEST(Report, StatGroupContainsHeadlineMetrics)
{
    const auto group = toStatGroup(sampleResult(), "run");
    const std::string dump = group.format();
    EXPECT_NE(dump.find("run.dynamic_energy_nj 12.5"),
              std::string::npos);
    EXPECT_NE(dump.find("run.static_energy_nj 7.25"),
              std::string::npos);
    EXPECT_NE(dump.find("run.core0.lbm.ipc 0.5"), std::string::npos);
    EXPECT_NE(dump.find("run.core0.lbm.mpki 60"), std::string::npos);
    EXPECT_NE(dump.find("run.flushed_lines 17"), std::string::npos);
}

TEST(Report, FormatMatchesStatGroup)
{
    const RunResult r = sampleResult();
    EXPECT_EQ(formatRunResult(r, "x"), toStatGroup(r, "x").format());
}

TEST(Report, EndToEndDumpFromRealRun)
{
    api::ExperimentSpec spec;
    spec.scale = "test";
    const RunResult &r = RunExecutor::instance().run(
        api::groupRunKey(spec, trace::groupByName("G2-10")));
    const std::string dump = formatRunResult(r, "coop");
    EXPECT_NE(dump.find("coop.core0.sjeng.ipc"), std::string::npos);
    EXPECT_NE(dump.find("coop.core1.calculix.mpki"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Drowsy gating extension

namespace
{

llc::LlcConfig
drowsyConfig()
{
    llc::LlcConfig config;
    config.geometry = {8 * 4 * 64, 4, 64};
    config.num_cores = 2;
    config.hit_latency = 10;
    config.umon_sample_period = 1;
    config.confirm_epochs = 1;
    config.gating = llc::GatingMode::Drowsy;
    config.stale_transition_cycles = 1'000'000'000;
    return config;
}

Addr
makeAddr(CoreId core, Addr tag, SetId set)
{
    return (static_cast<Addr>(core + 1) << 40) | (tag << (6 + 3)) |
           (static_cast<Addr>(set) << 6);
}

/** Both cores keep one hot block per set: each wants only 1 way. */
void
narrowTraffic(llc::CooperativeLlc &llc, Cycle &now, int rounds)
{
    for (int round = 0; round < rounds; ++round) {
        for (SetId s = 0; s < 8; ++s) {
            llc.access(0, makeAddr(0, 0, s), AccessType::Read, ++now);
            llc.access(1, makeAddr(1, 0, s), AccessType::Read, ++now);
        }
    }
}

} // namespace

TEST(DrowsyGating, DarkWaysStillLeakFractionally)
{
    mem::DramModel dram;
    llc::CooperativeLlc coop(drowsyConfig(), dram);
    Cycle now = 0;
    narrowTraffic(coop, now, 400);
    coop.epoch(++now);
    narrowTraffic(coop, now, 100); // complete the drains

    const double powered = coop.poweredWays();
    // 2 ways on + 2 drowsy at 25%: 2.5 effective ways.
    EXPECT_LT(powered, 4.0);
    EXPECT_GT(powered, 2.0);
    coop.checkInvariants();
}

TEST(DrowsyGating, GatedVddLeaksLess)
{
    auto run = [](llc::GatingMode mode) {
        llc::LlcConfig config = drowsyConfig();
        config.gating = mode;
        mem::DramModel dram;
        llc::CooperativeLlc coop(config, dram);
        Cycle now = 0;
        narrowTraffic(coop, now, 400);
        coop.epoch(++now);
        narrowTraffic(coop, now, 100);
        return coop.poweredWays();
    };
    EXPECT_LT(run(llc::GatingMode::GatedVdd),
              run(llc::GatingMode::Drowsy));
}

TEST(DrowsyGating, CleanLinesSurviveADrain)
{
    mem::DramModel dram;
    llc::CooperativeLlc coop(drowsyConfig(), dram);
    Cycle now = 0;

    // Core 0 builds a 3-deep working set, then narrows to 1 block so
    // its extra ways drain off with clean lines still inside.
    for (int round = 0; round < 400; ++round) {
        for (SetId s = 0; s < 8; ++s) {
            for (Addr t = 0; t < 3; ++t) {
                coop.access(0, makeAddr(0, t, s), AccessType::Read,
                            ++now);
            }
            coop.access(1, makeAddr(1, 0, s), AccessType::Read, ++now);
        }
    }
    // Several narrow epochs let the decayed utility curves converge on
    // the 1-way demand and the drains complete.
    for (int e = 0; e < 6; ++e) {
        coop.epoch(++now);
        narrowTraffic(coop, now, 300);
    }

    // Some way must be dark by now; drowsy mode may keep valid
    // (clean) lines inside it — the invariant checker accepts them.
    coop.checkInvariants();
    EXPECT_LT(coop.permissions().poweredCount(), 4u);
    // No dirty orphans anywhere.
    for (WayId w = 0; w < 4; ++w) {
        for (SetId s = 0; s < 8; ++s) {
            const auto &blk = coop.array().block(s, w);
            if (blk.valid && !coop.permissions().powered(w)) {
                EXPECT_FALSE(blk.dirty);
            }
        }
    }
}
