/**
 * @file
 * Tests for the approximate out-of-order core model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/trace_core.hpp"
#include "llc/schemes.hpp"

using namespace coopsim;
using core::CoreConfig;
using core::MemOp;
using core::OpStream;
using core::TraceCore;

namespace
{

/** Replays a scripted list of ops, then repeats the last one. */
class ScriptedStream final : public OpStream
{
  public:
    explicit ScriptedStream(std::vector<MemOp> ops)
        : ops_(std::move(ops))
    {
    }

    std::size_t nextBatch(MemOp *out, std::size_t max) override
    {
        for (std::size_t i = 0; i < max; ++i) {
            out[i] = index_ < ops_.size() ? ops_[index_++] : ops_.back();
        }
        return max;
    }

  private:
    std::vector<MemOp> ops_;
    std::size_t index_ = 0;
};

llc::LlcConfig
tinyLlc()
{
    llc::LlcConfig config;
    config.geometry = {16 * 4 * 64, 4, 64};
    config.num_cores = 1;
    config.hit_latency = 10;
    return config;
}

MemOp
llcOp(InstCount gap, Addr addr, AccessType type = AccessType::Read)
{
    MemOp op;
    op.gap_insts = gap;
    op.addr = addr;
    op.type = type;
    return op;
}

} // namespace

TEST(TraceCore, WidthLimitsRetirement)
{
    mem::DramModel dram;
    llc::UnmanagedLlc llc(tinyLlc(), dram);
    // Two bundles of 99 gap + 1 memory op = 200 instructions.
    ScriptedStream stream({llcOp(99, 0x40), llcOp(99, 0x40)});
    CoreConfig config;
    config.width = 4;
    TraceCore core(0, config, llc, stream);

    core.step();
    core.step();
    EXPECT_EQ(core.retired(), 200u);
    // 200 insts at width 4 = 50 cycles minimum.
    EXPECT_GE(core.cycle(), 50u);
}

TEST(TraceCore, FractionalWidthCarryIsExact)
{
    // Bundles of 1, 5, 3, 7 and 2 instructions, 18 in all: far from
    // the ROB and MSHR limits, so no stall and the clock reads exactly
    // floor(18 / width) at any width — the shift-and-mask path for
    // powers of two and the divide for the rest.
    for (const std::uint32_t width : {1u, 2u, 3u, 4u, 5u, 8u}) {
        mem::DramModel dram;
        llc::UnmanagedLlc llc(tinyLlc(), dram);
        std::vector<MemOp> ops;
        for (const InstCount gap : {0u, 4u, 2u, 6u, 1u}) {
            ops.push_back(llcOp(gap, 0x40));
        }
        ScriptedStream stream(ops);
        CoreConfig config;
        config.width = width;
        TraceCore core(0, config, llc, stream);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            core.step();
        }
        EXPECT_EQ(core.retired(), 18u) << "width " << width;
        EXPECT_EQ(core.cycle(), 18u / width) << "width " << width;
    }
}

TEST(TraceCore, MissesOverlapUpToRob)
{
    mem::DramModel dram;
    llc::UnmanagedLlc llc(tinyLlc(), dram);

    // Distinct blocks: all miss, ~400-cycle fills. Gaps of 10 insts
    // keep them inside one 128-entry ROB window, so they overlap.
    std::vector<MemOp> ops;
    for (int i = 0; i < 8; ++i) {
        ops.push_back(llcOp(10, 0x10000 + 0x40 * i));
    }
    ScriptedStream stream(ops);
    TraceCore core(0, CoreConfig{}, llc, stream);
    for (int i = 0; i < 8; ++i) {
        core.step();
    }
    // Serialised, 8 misses would cost > 3200 cycles; with MLP the core
    // is far ahead of that.
    EXPECT_LT(core.cycle(), 1000u);
}

TEST(TraceCore, RobOccupancyStallsFarApartMisses)
{
    mem::DramModel dram;
    llc::UnmanagedLlc llc(tinyLlc(), dram);

    // Misses more than a ROB apart cannot overlap: each must complete
    // before the window slides past it.
    std::vector<MemOp> ops;
    for (int i = 0; i < 4; ++i) {
        ops.push_back(llcOp(500, 0x20000 + 0x40 * i)); // 500 >> ROB=128
    }
    ScriptedStream stream(ops);
    CoreConfig config;
    config.rob = 128;
    TraceCore core(0, config, llc, stream);
    for (int i = 0; i < 4; ++i) {
        core.step();
    }
    // Each miss costs its full DRAM latency serially.
    EXPECT_GT(core.cycle(), 3u * 400u);
}

TEST(TraceCore, MshrLimitCausesStructuralStalls)
{
    mem::DramModel dram;
    llc::UnmanagedLlc llc(tinyLlc(), dram);

    std::vector<MemOp> ops;
    for (int i = 0; i < 12; ++i) {
        ops.push_back(llcOp(0, 0x30000 + 0x40 * i));
    }
    ScriptedStream a_ops(ops);
    CoreConfig narrow;
    narrow.mshr_entries = 1; // no overlap allowed
    TraceCore serial(0, narrow, llc, a_ops);
    for (int i = 0; i < 12; ++i) {
        serial.step();
    }

    mem::DramModel dram2;
    llc::UnmanagedLlc llc2(tinyLlc(), dram2);
    ScriptedStream b_ops(ops);
    CoreConfig wide;
    wide.mshr_entries = 16;
    TraceCore parallel(0, wide, llc2, b_ops);
    for (int i = 0; i < 12; ++i) {
        parallel.step();
    }
    EXPECT_GT(serial.cycle(), parallel.cycle());

    // The window holds exactly mshr_entries fills (power of two or not,
    // up to a full ring): back-to-back misses issue without a stall
    // until the (k+1)-th, which waits for the first fill (>= the
    // 400-cycle unloaded DRAM latency).
    for (const std::uint32_t k : {1u, 3u, 16u}) {
        mem::DramModel dram_k;
        llc::UnmanagedLlc llc_k(tinyLlc(), dram_k);
        std::vector<MemOp> misses;
        for (std::uint32_t i = 0; i <= k; ++i) {
            misses.push_back(llcOp(0, 0x30000 + 0x40 * i));
        }
        ScriptedStream stream(misses);
        CoreConfig config;
        config.mshr_entries = k;
        TraceCore core(0, config, llc_k, stream);
        for (std::uint32_t i = 0; i < k; ++i) {
            core.step();
        }
        EXPECT_LT(core.cycle(), 100u) << "k=" << k;
        core.step();
        EXPECT_GE(core.cycle(), 400u) << "k=" << k;
    }
}

TEST(TraceCore, MeasurementWindowIpc)
{
    mem::DramModel dram;
    llc::UnmanagedLlc llc(tinyLlc(), dram);
    ScriptedStream stream({llcOp(399, 0x40)}); // repeats: 400 insts/op
    TraceCore core(0, CoreConfig{}, llc, stream);

    core.step(); // warm-up
    core.startMeasurement();
    const Cycle c0 = core.cycle();
    const InstCount i0 = core.retired();
    for (int i = 0; i < 10; ++i) {
        core.step();
    }
    core.markQuotaReached();
    EXPECT_EQ(core.measuredInsts(), core.retired() - i0);
    EXPECT_GT(core.measuredCycles(), 0u);
    const double expected =
        static_cast<double>(core.retired() - i0) /
        static_cast<double>(core.cycle() - c0);
    EXPECT_DOUBLE_EQ(core.ipc(), expected);

    // Steps after the quota don't change the reported IPC.
    const double at_quota = core.ipc();
    core.step();
    EXPECT_DOUBLE_EQ(core.ipc(), at_quota);
}
