#include "mem/dram.hpp"

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
