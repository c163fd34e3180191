#include "umon/umon.hpp"

#include <cstring>

#include "common/logging.hpp"

namespace coopsim::umon
{

UtilityMonitor::UtilityMonitor(const UmonConfig &config)
    : config_(config),
      slicer_(config.llc_sets, config.block_bytes),
      position_hits_(config.llc_ways, 0)
{
    COOPSIM_ASSERT(config.llc_ways > 0, "ATD with no ways");
    COOPSIM_ASSERT(isPowerOfTwo(config.sample_period),
                   "sample period must be a power of two");
    COOPSIM_ASSERT(config.llc_sets % config.sample_period == 0,
                   "sample period must divide set count");
    COOPSIM_ASSERT(slicer_.blockBits() + slicer_.setBits() >= 1,
                   "ATD tags must drop an address bit to stay clear of "
                   "the empty-slot sentinel");
    sample_shift_ = floorLog2(config.sample_period);
    const std::uint32_t sampled_sets = config.llc_sets >> sample_shift_;
    atd_.assign(static_cast<std::size_t>(sampled_sets) * config.llc_ways,
                kEmptyTag);
}

void
UtilityMonitor::access(Addr addr)
{
    ++accesses_;
    const SetId set = slicer_.set(addr);
    if (!sampled(set)) {
        return;
    }
    ++sampled_refs_;

    const Addr tag = slicer_.tag(addr);
    const std::uint32_t ways = config_.llc_ways;
    Addr *stack = &atd_[static_cast<std::size_t>(set >> sample_shift_) * ways];

    // One scan stops at the hit, at the first empty slot (valid tags
    // form a prefix), or at the LRU tail of a full stack; its index is
    // the recency position. The slots above it move down one, which
    // evicts the tail on a full-stack miss, and the tag becomes MRU.
    std::uint32_t p = 0;
    while (p + 1 < ways && stack[p] != tag && stack[p] != kEmptyTag) {
        ++p;
    }
    if (stack[p] == tag) {
        ++position_hits_[p];
    } else {
        ++misses_;
    }
    std::memmove(stack + 1, stack, p * sizeof(Addr));
    stack[0] = tag;
}

void
UtilityMonitor::missCurve(std::vector<double> &curve) const
{
    const std::uint32_t ways = config_.llc_ways;
    const double scale = static_cast<double>(config_.sample_period);

    // Hits measured in the sampled ATD generalise to the whole cache
    // by multiplying by the sampling period; the *unsampled* misses are
    // approximated the same way. Using sampled counters uniformly keeps
    // the curve internally consistent.
    //
    // The suffix sums are integers, each at most the final one, which
    // is asserted below 2^53: every one converts to double exactly, so
    // summing in uint64_t matches a double accumulation bit for bit.
    curve.resize(ways + 1);
    std::uint64_t tail = misses_;
    curve[ways] = static_cast<double>(tail) * scale;
    for (std::uint32_t w = ways; w-- > 0;) {
        tail += position_hits_[w];
        curve[w] = static_cast<double>(tail) * scale;
    }
    COOPSIM_ASSERT(tail < (std::uint64_t{1} << 53),
                   "UMON counters exceed exact double range");
}

void
UtilityMonitor::decay()
{
    for (auto &h : position_hits_) {
        h >>= 1;
    }
    misses_ >>= 1;
    accesses_ >>= 1;
    sampled_refs_ >>= 1;
}

void
UtilityMonitor::reset()
{
    atd_.assign(atd_.size(), kEmptyTag);
    position_hits_.assign(position_hits_.size(), 0);
    misses_ = 0;
    accesses_ = 0;
    sampled_refs_ = 0;
}

} // namespace coopsim::umon
