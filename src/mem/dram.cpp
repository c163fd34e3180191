#include "mem/dram.hpp"

#include <algorithm>

#include "common/geometry.hpp"
#include "common/logging.hpp"

namespace coopsim::mem
{

DramModel::DramModel(const DramConfig &config)
    : config_(config),
      block_bits_(floorLog2(config.block_bytes)),
      bank_ready_(config.banks, 0),
      inflight_(config.max_outstanding, 0)
{
    COOPSIM_ASSERT(config.banks > 0 && isPowerOfTwo(config.banks),
                   "DRAM bank count must be a power of two");
    COOPSIM_ASSERT(config.max_outstanding > 0, "outstanding window empty");
    COOPSIM_ASSERT(isPowerOfTwo(config.block_bytes),
                   "block size must be a power of two");
}

std::uint32_t
DramModel::bankOf(Addr addr) const
{
    // Bank-interleave on block-granular address bits.
    return static_cast<std::uint32_t>((addr >> block_bits_) &
                                      (config_.banks - 1));
}

Cycle
DramModel::schedule(Addr addr, Cycle now)
{
    // The outstanding-request window: when full, a new request cannot
    // start before the oldest in-flight request completes.
    Cycle start = now;
    const Cycle oldest = inflight_[inflight_head_];
    start = std::max(start, oldest);

    // Bank conflict: wait for the bank to free up.
    const std::uint32_t bank = bankOf(addr);
    start = std::max(start, bank_ready_[bank]);

    const Cycle done = start + config_.access_latency;
    bank_ready_[bank] = start + config_.bank_occupancy;

    inflight_[inflight_head_] = done;
    if (++inflight_head_ == inflight_.size())
        inflight_head_ = 0;

    stats_.queue_delay.sample(start - now);
    return done;
}

Cycle
DramModel::access(Addr addr, AccessType type, Cycle now)
{
    if (type == AccessType::Write) {
        stats_.writes.inc();
    } else {
        stats_.reads.inc();
    }
    return schedule(addr, now);
}

void
DramModel::writeback(Addr addr, Cycle now)
{
    stats_.writebacks.inc();
    schedule(addr, now);
}

Cycle
DramModel::flush(Addr addr, Cycle now)
{
    stats_.flushes.inc();
    return schedule(addr, now);
}

void
DramModel::resetStats()
{
    stats_ = DramStats{};
}

void
DramModel::carryBacklog(Cycle from, Cycle delta)
{
    for (Cycle &ready : bank_ready_) {
        if (ready > from) {
            ready += delta;
        }
    }
    for (Cycle &done : inflight_) {
        if (done > from) {
            done += delta;
        }
    }
}

} // namespace coopsim::mem
