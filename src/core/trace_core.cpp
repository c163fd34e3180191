#include "core/trace_core.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace coopsim::core
{

TraceCore::TraceCore(CoreId id, const CoreConfig &config,
                     llc::Llc &llc, OpStream &stream)
    : id_(id), config_(config), llc_(llc), stream_(stream),
      width_shift_(std::has_single_bit(config.width)
                       ? static_cast<std::uint32_t>(
                             std::countr_zero(config.width))
                       : kNoShift),
      window_(std::bit_ceil(std::size_t{config.mshr_entries})),
      window_mask_(window_.size() - 1)
{
    COOPSIM_ASSERT(config.width > 0, "zero-width core");
    COOPSIM_ASSERT(config.rob > 0, "empty ROB");
    COOPSIM_ASSERT(config.mshr_entries > 0, "no MSHRs");
}

void
TraceCore::drainWindowTo(InstCount inst_horizon)
{
    // Retire completed requests; stall on any outstanding request whose
    // instruction has fallen more than a ROB's worth behind.
    while (window_size_ > 0) {
        const Outstanding &oldest = windowAt(0);
        if (oldest.ready <= cycle_) {
            windowPopFront();
            continue;
        }
        if (inst_horizon >= oldest.inst_no + config_.rob) {
            cycle_ = std::max(cycle_, oldest.ready);
            windowPopFront();
            continue;
        }
        break;
    }
}

void
TraceCore::retireGap(InstCount gap)
{
    // ROB-limited: the gap cannot retire past outstanding misses that
    // would fall out of the window.
    drainWindowTo(retired_ + gap);
    retired_ += gap;
    // Width-limited retirement with a fractional carry: shift and
    // mask for power-of-two widths (every shipped configuration), the
    // equivalent divide otherwise.
    width_carry_ += gap;
    if (width_shift_ != kNoShift) {
        cycle_ += width_carry_ >> width_shift_;
        width_carry_ &= config_.width - 1;
    } else {
        cycle_ += width_carry_ / config_.width;
        width_carry_ %= config_.width;
    }
}

void
TraceCore::executeOp(const MemOp &op)
{
    retireGap(op.gap_insts);

    // The memory instruction itself.
    retireGap(1);

    const llc::LlcAccess res = llc_.access(id_, op.addr, op.type, cycle_);

    // Track the fill as an outstanding request subject to MSHR limits.
    if (window_size_ >= config_.mshr_entries) {
        // Structural stall: wait for the oldest fill.
        cycle_ = std::max(cycle_, windowAt(0).ready);
        windowPopFront();
    }
    if (res.ready_at > cycle_) {
        windowAt(window_size_) = {retired_, res.ready_at};
        ++window_size_;
    }
}

void
TraceCore::step()
{
    executeOp(nextOp());
}

std::uint64_t
TraceCore::stepQuantum(Cycle cycle_bound, InstCount inst_bound)
{
    std::uint64_t ops = 0;
    do {
        executeOp(nextOp());
        ++ops;
    } while (cycle_ < cycle_bound && retired_ < inst_bound);
    return ops;
}

void
TraceCore::fastForward(InstCount insts, Cycle cycles)
{
    // Outstanding fills ride across the jump: their remaining latency
    // is stall debt the next detail window still owes (dropping them
    // would forgive every miss in flight at a window boundary — at
    // high core counts, where fill latencies exceed the window
    // length, that forgives most misses the window issued). Position
    // within the ROB is preserved by advancing inst_no with the jump.
    for (std::size_t i = 0; i < window_size_; ++i) {
        Outstanding &o = windowAt(i);
        if (o.ready > cycle_) {
            o.ready += cycles;
        }
        o.inst_no += insts;
    }
    retired_ += insts;
    cycle_ += cycles;
}

void
TraceCore::startMeasurement()
{
    measure_insts_ = retired_;
    measure_cycle_ = cycle_;
    quota_cycle_ = kCycleMax;
    quota_insts_ = 0;
}

void
TraceCore::markQuotaReached()
{
    if (quota_cycle_ == kCycleMax) {
        quota_cycle_ = cycle_;
        quota_insts_ = retired_;
    }
}

double
TraceCore::ipc() const
{
    const Cycle end_cycle =
        quota_cycle_ != kCycleMax ? quota_cycle_ : cycle_;
    const InstCount end_insts =
        quota_cycle_ != kCycleMax ? quota_insts_ : retired_;
    const Cycle cycles = end_cycle - measure_cycle_;
    if (cycles == 0) {
        return 0.0;
    }
    return static_cast<double>(end_insts - measure_insts_) /
           static_cast<double>(cycles);
}

} // namespace coopsim::core
