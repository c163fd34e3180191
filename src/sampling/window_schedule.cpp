#include "sampling/window_schedule.hpp"

#include <algorithm>
#include <cmath>

namespace coopsim::sampling
{

WindowSchedule::Layout
WindowSchedule::layout(const Resolved &estimator, Cycle epoch_cycles,
                       InstCount insts_per_app, double cpi)
{
    const double expected_cycles =
        static_cast<double>(insts_per_app) * cpi;
    const double target_per_epoch =
        estimator.windows * static_cast<double>(epoch_cycles) /
        std::max(1.0, expected_cycles);
    const Cycle per_epoch = std::max<Cycle>(
        1, std::min<Cycle>(
               epoch_cycles / 16,
               static_cast<Cycle>(std::llround(target_per_epoch))));
    const Cycle period = std::max<Cycle>(16, epoch_cycles / per_epoch);
    return {period, estimator.fast_forward
                        ? std::max<Cycle>(1, period / kDetailDivisor)
                        : period};
}

WindowSchedule::WindowSchedule(
    const Resolved &estimator, Cycle epoch_cycles, InstCount insts_per_app,
    Cycle now, const std::vector<std::unique_ptr<core::TraceCore>> &cores,
    mem::DramModel &dram, llc::Llc &llc)
    : estimator_(estimator),
      anchor_((now / epoch_cycles) * epoch_cycles),
      end_(cores.size(), kCycleMax), cores_(cores.size()), dram_(dram),
      llc_(llc)
{
    if (estimator_.windows == 0) {
        return;
    }
    double cpi = 0.0;
    for (const auto &core : cores) {
        cpi += static_cast<double>(core->cycle()) /
               static_cast<double>(std::max<InstCount>(1, core->retired()));
    }
    cpi /= static_cast<double>(cores.size());
    layout_ = layout(estimator_, epoch_cycles, insts_per_app, cpi);
    // A core may start mid-region; the partial stretch to its end is
    // simulated in detail.
    for (std::size_t c = 0; c < cores.size(); ++c) {
        cores_[c].start_insts = cores[c]->retired();
        cores_[c].start_cycle = cores[c]->cycle();
        end_[c] = nextEnd(cores[c]->cycle());
    }
}

Cycle
WindowSchedule::regionStart(Cycle clock) const
{
    return anchor_ + (clock - anchor_) / layout_.period * layout_.period;
}

Cycle
WindowSchedule::nextEnd(Cycle clock) const
{
    const Cycle end = regionStart(clock) + layout_.detail;
    return end > clock ? end : end + layout_.period;
}

void
WindowSchedule::close(core::TraceCore &core, InstCount quota)
{
    CoreWindows &w = cores_[core.id()];
    Cycle &end = end_[core.id()];
    const InstCount insts = core.retired() - w.start_insts;
    const Cycle cycles = core.cycle() - w.start_cycle;
    w.detail_insts += insts;
    const bool measured = insts > 0 && cycles > 0;
    const double ipc = measured ? static_cast<double>(insts) /
                                      static_cast<double>(cycles)
                                : 1.0;
    if (measured && quota != kInstMax) {
        w.ipc.sample(ipc);
    }
    if (estimator_.fast_forward) {
        // When the last core closes the region ending at `end`, no
        // further access can be issued before the gap, so the queue
        // backlog pending there is carried over to the next detail
        // region — without this every window starts against drained
        // queues and measures a transient, biasing IPC high exactly
        // where contention matters most.
        if (end != gap_boundary_) {
            gap_boundary_ = end;
            gap_closers_ = 0;
        }
        if (++gap_closers_ == end_.size()) {
            const Cycle gap = layout_.period - layout_.detail;
            dram_.carryBacklog(end, gap);
            llc_.carryBacklog(end, gap);
        }
        // Jump the clock to the next region's start and extrapolate the
        // skipped instructions at the closed window's IPC. A core short
        // of quota caps the extrapolation so the jump lands exactly on
        // the quota instead of crossing it (the analytic mirror of the
        // quantum's instruction bound).
        Cycle jump =
            regionStart(core.cycle()) + layout_.period - core.cycle();
        auto skipped = static_cast<InstCount>(
            std::llround(static_cast<double>(jump) * ipc));
        if (quota != kInstMax && quota - core.retired() < skipped) {
            skipped = quota - core.retired();
            jump = std::max<Cycle>(1, static_cast<Cycle>(std::llround(
                                          static_cast<double>(skipped) /
                                          ipc)));
        }
        core.fastForward(skipped, jump);
    }
    end = nextEnd(core.cycle());
    w.start_insts = core.retired();
    w.start_cycle = core.cycle();
}

void
WindowSchedule::finish(
    const std::vector<std::unique_ptr<core::TraceCore>> &cores)
{
    if (estimator_.windows == 0) {
        return;
    }
    std::uint64_t measured_total = 0;
    std::uint64_t detail_total = 0;
    for (std::size_t c = 0; c < cores.size(); ++c) {
        CoreWindows &w = cores_[c];
        w.detail_insts += cores[c]->retired() - w.start_insts;
        // The whole phase, post-quota contention included.
        const InstCount measured = cores[c]->measuredInsts();
        if (w.detail_insts > 0 && measured > 0) {
            w.op_scale = static_cast<double>(measured) /
                         static_cast<double>(w.detail_insts);
        }
        measured_total += measured;
        detail_total += w.detail_insts;
    }
    if (detail_total > 0) {
        op_scale_total_ = static_cast<double>(measured_total) /
                          static_cast<double>(detail_total);
    }
}

std::uint64_t
WindowSchedule::samples() const
{
    std::uint64_t samples = 0;
    for (const CoreWindows &w : cores_) {
        samples += w.ipc.count();
    }
    return samples;
}

double
WindowSchedule::ipcCi(std::uint32_t c, double ipc,
                      std::uint64_t llc_sets) const
{
    if (estimator_.windows == 0) {
        return 0.0;
    }
    const double bias_rel = biasAllowance(
        estimator_.set_period, estimator_.fast_forward,
        static_cast<double>(llc_sets) /
            static_cast<double>(estimator_.set_period),
        static_cast<double>(layout_.detail));
    return kCiZ * cores_[c].ipc.stdError() + bias_rel * ipc;
}

} // namespace coopsim::sampling
