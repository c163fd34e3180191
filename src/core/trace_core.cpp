#include "core/trace_core.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace coopsim::core
{

TraceCore::TraceCore(CoreId id, const CoreConfig &config,
                     llc::Llc &llc, OpStream &stream)
    : id_(id), config_(config), llc_(&llc), stream_(&stream),
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

TraceCore::TraceCore(const TraceCore &warmed, llc::Llc &llc,
                     OpStream &stream)
    : TraceCore(warmed)
{
    llc_ = &llc;
    stream_ = &stream;
}

std::uint64_t
TraceCore::stepQuantum(Cycle cycle_bound, InstCount inst_bound)
{
    Cycle cycle = cycle_;
    InstCount retired = retired_;
    std::uint64_t carry = width_carry_;
    std::size_t head = window_head_;
    std::size_t size = window_size_;
    std::size_t pos = op_pos_;
    std::size_t len = op_len_;
    Outstanding *const window = window_.data();
    const std::size_t mask = window_mask_;
    const InstCount rob = config_.rob;
    const std::uint32_t mshrs = config_.mshr_entries;
    const std::uint32_t width = config_.width;
    const std::uint32_t width_shift = width_shift_;

    // Retires @p gap instructions. ROB-limited first: completed
    // requests leave the window, and the core stalls on any request
    // whose instruction would fall more than a ROB's worth behind.
    // Then width-limited, with a fractional carry: shift and mask for
    // power-of-two widths (every shipped configuration), the
    // equivalent divide otherwise.
    const auto retire = [&](InstCount gap) {
        const InstCount horizon = retired + gap;
        while (size > 0) {
            const Outstanding &oldest = window[head];
            if (oldest.ready > cycle) {
                if (horizon < oldest.inst_no + rob) {
                    break;
                }
                cycle = oldest.ready;
            }
            head = (head + 1) & mask;
            --size;
        }
        retired = horizon;
        carry += gap;
        if (width_shift != kNoShift) {
            cycle += carry >> width_shift;
            carry &= width - 1;
        } else {
            cycle += carry / width;
            carry %= width;
        }
    };

    std::uint64_t ops = 0;
    do {
        if (pos == len) {
            len = stream_->nextBatch(op_buf_.data(), kOpBatch);
            COOPSIM_ASSERT(len > 0, "op stream ended");
            pos = 0;
        }
        const MemOp op = op_buf_[pos++];

        retire(op.gap_insts);
        // The memory instruction itself.
        retire(1);

        const llc::LlcAccess res = llc_->access(id_, op.addr, op.type, cycle);

        // Track the fill as an outstanding request subject to MSHR
        // limits.
        if (size >= mshrs) {
            // Structural stall: wait for the oldest fill.
            cycle = std::max(cycle, window[head].ready);
            head = (head + 1) & mask;
            --size;
        }
        if (res.ready_at > cycle) {
            window[(head + size) & mask] = {retired, res.ready_at};
            ++size;
        }
        ++ops;
    } while (cycle < cycle_bound && retired < inst_bound);

    cycle_ = cycle;
    retired_ = retired;
    width_carry_ = carry;
    window_head_ = head;
    window_size_ = size;
    op_pos_ = pos;
    op_len_ = len;
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
