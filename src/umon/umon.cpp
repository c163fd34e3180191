#include "umon/umon.hpp"

#include <algorithm>

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
}

void
UtilityMonitor::pack()
{
    if (!packed_depth_.empty()) {
        return;
    }
    const std::uint32_t ways = config_.llc_ways;
    std::vector<Addr> valid;
    packed_depth_.resize(atd_.size() / ways);
    for (std::size_t row = 0; row < packed_depth_.size(); ++row) {
        const Addr *stack = &atd_[row * ways];
        std::uint32_t depth = 0;
        while (depth < ways && stack[depth] != kEmptyTag) {
            ++depth;
        }
        packed_depth_[row] = static_cast<std::uint8_t>(depth);
        valid.insert(valid.end(), stack, stack + depth);
    }
    valid.shrink_to_fit();
    atd_.swap(valid);
}

void
UtilityMonitor::unpack()
{
    if (packed_depth_.empty()) {
        return;
    }
    const std::uint32_t ways = config_.llc_ways;
    std::vector<Addr> dense(packed_depth_.size() * ways, kEmptyTag);
    const Addr *valid = atd_.data();
    for (std::size_t row = 0; row < packed_depth_.size(); ++row) {
        std::copy_n(valid, packed_depth_[row], &dense[row * ways]);
        valid += packed_depth_[row];
    }
    atd_.swap(dense);
    packed_depth_ = {};
}

void
UtilityMonitor::reset()
{
    unpack();
    atd_.assign(atd_.size(), kEmptyTag);
    position_hits_.assign(position_hits_.size(), 0);
    misses_ = 0;
    accesses_ = 0;
}

} // namespace coopsim::umon
