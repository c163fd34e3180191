/**
 * @file
 * The op-sampling window schedule of one measurement phase (see
 * sampling.hpp).
 *
 * The phase is cut into windows on the GLOBAL clock: detail regions
 * every core simulates exactly, alternating with fast-forward gaps
 * every core jumps over analytically (clock advanced to the next
 * detail region, retired instructions extrapolated at the closed
 * window's IPC; no ops generated, no LLC traffic). Anchoring the
 * schedule on shared cycle boundaries keeps all cores in detail
 * simultaneously, so the contention a detail window observes (DRAM
 * queueing, shared-LLC interference) is representative — per-core
 * instruction windows would let one core measure while its rivals
 * skip, biasing IPC high. Set-only runs do not fast-forward and use
 * the windows purely as variance samples. The period derives from the
 * warm-up CPI (a pure function of simulated state, so the schedule is
 * deterministic and identical under every DriverMode).
 *
 * sim::System asks two things of it on the measurement loop: bound(c)
 * caps core c's quanta at the end of its detail region, and close()
 * takes the core once its clock reaches that end. An exact run's
 * schedule has no windows and bounds nothing.
 */

#ifndef COOPSIM_SAMPLING_WINDOW_SCHEDULE_HPP
#define COOPSIM_SAMPLING_WINDOW_SCHEDULE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/trace_core.hpp"
#include "llc/shared_cache.hpp"
#include "mem/dram.hpp"
#include "sampling/sampling.hpp"

namespace coopsim::sampling
{

class WindowSchedule
{
  public:
    /** Detail regions start every `period` cycles from the epoch-
     *  aligned anchor and last `detail` cycles. */
    struct Layout
    {
        Cycle period;
        Cycle detail;
    };

    /**
     * The layout of @p estimator's windows (which must have some) in a
     * phase of @p insts_per_app instructions per app at @p cpi cycles
     * per instruction: the estimator's window count spread over the
     * expected phase length, with the period locked to an integer
     * divisor of the epoch, so every partitioning epoch holds a detail
     * region. A free-running period lets whole epochs fall into
     * fast-forward gaps, and an epoch whose UMON counters saw no
     * traffic reads every app as idle — the takeover logic then strips
     * ways from exactly the fast apps the estimator is supposed to
     * measure. When the period does not divide the epoch, epochs hold
     * two different region counts, one apart.
     */
    static Layout layout(const Resolved &estimator, Cycle epoch_cycles,
                         InstCount insts_per_app, double cpi);

    /**
     * The schedule of the measurement phase @p cores start at global
     * clock @p now, warmed up; the layout takes the mean of their
     * CPIs so far. At the end of each detail region, the fast-forward
     * gap carries @p dram's and @p llc's backlog.
     */
    WindowSchedule(const Resolved &estimator, Cycle epoch_cycles,
                   InstCount insts_per_app, Cycle now,
                   const std::vector<std::unique_ptr<core::TraceCore>> &cores,
                   mem::DramModel &dram, llc::Llc &llc);

    /** The clock core @p c's quanta stop at: the end of its detail
     *  region (kCycleMax when the run has no windows). */
    Cycle bound(std::uint32_t c) const { return end_[c]; }

    /**
     * Closes the window of @p core, whose clock reached bound(): takes
     * the window's IPC sample unless the core has reached its quota,
     * jumps the core over the fast-forward gap, and opens its next
     * window. @p quota is the retired count at which the core reaches
     * its quota, or kInstMax once it has; a jump that would cross it
     * lands on it instead.
     */
    void close(core::TraceCore &core, InstCount quota);

    /** Accounts the final partial windows of @p cores once the phase
     *  has ended, for opScale() and opScaleTotal(). */
    void finish(const std::vector<std::unique_ptr<core::TraceCore>> &cores);

    /** Core @p c's measured instructions over its detail ones: the
     *  factor its counters scale by (1 without fast-forward). */
    double opScale(std::uint32_t c) const { return cores_[c].op_scale; }
    /** opScale() over all cores together. */
    double opScaleTotal() const { return op_scale_total_; }

    /** IPC samples taken, over all cores. */
    std::uint64_t samples() const;

    /**
     * Half-width of the ~95% confidence interval on core @p c's IPC
     * @p ipc, on an LLC of @p llc_sets sets: z times the window IPCs'
     * standard error plus the estimator's bias allowance. 0 without
     * windows.
     */
    double ipcCi(std::uint32_t c, double ipc, std::uint64_t llc_sets) const;

  private:
    /** The start of the last detail region at or before @p clock. */
    Cycle regionStart(Cycle clock) const;
    /** The first detail-region end strictly ahead of @p clock: the
     *  containing region's end, or the next region's when @p clock
     *  sits in a gap (the remainder is then simulated in detail). */
    Cycle nextEnd(Cycle clock) const;

    struct CoreWindows
    {
        InstCount start_insts = 0;
        Cycle start_cycle = 0;
        InstCount detail_insts = 0;
        stats::Average ipc;
        double op_scale = 1.0;
    };

    Resolved estimator_;
    Cycle anchor_ = 0;
    Layout layout_{1, 1};
    std::vector<Cycle> end_;
    std::vector<CoreWindows> cores_;
    double op_scale_total_ = 1.0;
    mem::DramModel &dram_;
    llc::Llc &llc_;
    /** The region end the cores are closing, and how many have: the
     *  last to close it carries the backlog over the gap. */
    Cycle gap_boundary_ = 0;
    std::uint32_t gap_closers_ = 0;
};

} // namespace coopsim::sampling

#endif // COOPSIM_SAMPLING_WINDOW_SCHEDULE_HPP
