/**
 * @file
 * Approximate out-of-order core model.
 *
 * Substitutes for the paper's Marss-x86 4-wide, 7-stage OoO core
 * (Table 2). The model captures the properties the evaluation depends
 * on — the rate at which each core presents accesses to the shared LLC
 * and the stall cycles caused by LLC/DRAM latency under bounded
 * memory-level parallelism — without simulating the x86 front end:
 *
 *  - non-memory instructions retire at the issue width;
 *  - every memory operation is an L1 miss (op streams are L1-filtered;
 *    see core/op_stream.hpp), so it goes to the shared LLC and enters
 *    an outstanding-miss window; the core stalls when the miss window
 *    exceeds the MSHR capacity or when the oldest outstanding miss
 *    falls out of the reorder-buffer window (ROB-occupancy stall — the
 *    classic analytic OoO model).
 */

#ifndef COOPSIM_CORE_TRACE_CORE_HPP
#define COOPSIM_CORE_TRACE_CORE_HPP

#include <array>
#include <vector>

#include "common/types.hpp"
#include "core/op_stream.hpp"
#include "llc/shared_cache.hpp"

namespace coopsim::core
{

/** Core model parameters (paper Table 2). */
struct CoreConfig
{
    /** Issue/retire width. */
    std::uint32_t width = 4;
    /** Reorder buffer entries. */
    std::uint32_t rob = 128;
    /** Outstanding LLC misses the core can sustain (L1 MSHRs). */
    std::uint32_t mshr_entries = 16;

    bool operator==(const CoreConfig &) const = default;
};

/**
 * One simulated core executing an operation stream.
 */
class TraceCore
{
  public:
    /**
     * @param id     Core identifier (used for LLC attribution).
     * @param config Core parameters.
     * @param llc    The shared LLC every operation accesses.
     * @param stream Workload generator feeding the core.
     */
    TraceCore(CoreId id, const CoreConfig &config, llc::Llc &llc,
              OpStream &stream);

    /**
     * A copy of @p warmed — clock, retired count, buffered ops,
     * outstanding fills and measurement marks — that runs against
     * @p llc and @p stream. @p stream must continue where
     * @p warmed's stream stands (OpStream::fork), behind the ops
     * @p warmed has buffered.
     */
    TraceCore(const TraceCore &warmed, llc::Llc &llc, OpStream &stream);

    /**
     * Executes one operation bundle (gap instructions + one memory
     * operation), advancing the core's local clock: a one-bundle
     * quantum, since stepQuantum checks its bounds after each bundle.
     */
    void step() { stepQuantum(0, 0); }

    /**
     * Executes operation bundles back to back until the local clock
     * reaches @p cycle_bound or the retired-instruction count reaches
     * @p inst_bound, and returns the number of bundles executed.
     *
     * Always executes at least one bundle (the driver only dispatches
     * a quantum to the arbitration winner, which the per-op loop would
     * have stepped unconditionally), and both bounds are checked after
     * each bundle — exactly the post-step checks of the per-op driver,
     * so a quantum ends on the same bundle the per-op loop would have
     * re-arbitrated or quota-marked on. State after
     * stepQuantum(bound, insts) is bit-identical to calling step() in
     * a loop with those exit checks.
     *
     * This loop is the core's only copy of the bundle logic. It runs
     * on locals written back once at the end: the opaque LLC call
     * inside would otherwise force every member through memory on
     * every bundle.
     */
    std::uint64_t stepQuantum(Cycle cycle_bound, InstCount inst_bound);

    /**
     * Fast-forward jump for op sampling (src/sampling/): advances the
     * retired count by @p insts and the clock by @p cycles without
     * consuming ops or touching the memory hierarchy — the op stream
     * stays where it is, so the next detail window resumes on the op
     * the last one stopped before. Outstanding fills ride across the
     * jump with their remaining latency intact — in-flight stall debt
     * belongs to the next detail window.
     */
    void fastForward(InstCount insts, Cycle cycles);

    /** Local clock. Advances monotonically with step(). */
    Cycle cycle() const { return cycle_; }

    /** Instructions retired since construction. */
    InstCount retired() const { return retired_; }

    /**
     * Starts the measurement window here: IPC and instruction quotas
     * are computed from this point (used after cache warm-up).
     */
    void startMeasurement();

    /** Instructions retired inside the measurement window. */
    InstCount measuredInsts() const { return retired_ - measure_insts_; }

    /** Cycles elapsed inside the measurement window. */
    Cycle measuredCycles() const { return cycle_ - measure_cycle_; }

    /**
     * Records the moment the core reached its instruction quota; IPC
     * is reported over [measurement start, quota].
     */
    void markQuotaReached();

    /** IPC over the measurement window (up to the quota if marked). */
    double ipc() const;

    CoreId id() const { return id_; }

  private:
    /** Ops fetched per virtual OpStream::nextBatch() call. */
    static constexpr std::size_t kOpBatch = 64;

    CoreId id_;
    CoreConfig config_;
    /** Rebound by the copy constructor above. */
    llc::Llc *llc_;
    OpStream *stream_;

    /**
     * Ring buffer of pre-generated operations: the stream pays one
     * virtual dispatch (and one generator-loop setup) per kOpBatch
     * ops instead of per op. Safe because streams are pure sequences
     * (see OpStream::nextBatch).
     */
    std::array<MemOp, kOpBatch> op_buf_{};
    std::size_t op_pos_ = 0;
    std::size_t op_len_ = 0;

    Cycle cycle_ = 0;
    InstCount retired_ = 0;
    /** Fractional-cycle accumulator for width-limited retirement. */
    std::uint64_t width_carry_ = 0;

    /** log2(width) when the width is a power of two, else kNoShift. */
    static constexpr std::uint32_t kNoShift = 64;
    std::uint32_t width_shift_;

    /** Outstanding LLC requests: (instruction number, data ready). */
    struct Outstanding
    {
        InstCount inst_no;
        Cycle ready;
    };
    /**
     * The outstanding requests, oldest first, in a fixed ring of
     * bit_ceil(mshr_entries) slots. It never holds more than
     * mshr_entries: stepQuantum() pops the oldest before it pushes
     * into a full window.
     */
    std::vector<Outstanding> window_;
    std::size_t window_head_ = 0;
    std::size_t window_size_ = 0;
    std::size_t window_mask_;

    Outstanding &windowAt(std::size_t i)
    {
        return window_[(window_head_ + i) & window_mask_];
    }

    InstCount measure_insts_ = 0;
    Cycle measure_cycle_ = 0;
    InstCount quota_insts_ = 0;
    Cycle quota_cycle_ = kCycleMax;
};

} // namespace coopsim::core

#endif // COOPSIM_CORE_TRACE_CORE_HPP
