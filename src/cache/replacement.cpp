#include "cache/replacement.hpp"

namespace coopsim::cache
{

ReplacementPolicy::ReplacementPolicy(ReplPolicy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed)
{
}

WayId
ReplacementPolicy::randomVictim(WayMask mask)
{
    const auto count = static_cast<std::uint32_t>(std::popcount(mask));
    std::uint32_t pick = static_cast<std::uint32_t>(rng_.nextBelow(count));
    WayMask m = mask;
    while (pick > 0) {
        m &= m - 1;
        --pick;
    }
    COOPSIM_ASSERT(m != 0, "random victim ran past mask");
    return lowestWay(m);
}

} // namespace coopsim::cache
