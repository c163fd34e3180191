#include "energy/accounting.hpp"

#include "common/logging.hpp"

namespace coopsim::energy
{

EnergyAccounting::EnergyAccounting(const CacheEnergyProfile &profile,
                                   std::uint32_t total_ways)
    : profile_(profile), total_ways_(total_ways)
{
    COOPSIM_ASSERT(total_ways > 0, "accounting for cache with no ways");
}

void
EnergyAccounting::onBlockDrain()
{
    totals_.drain_nj += profile_.data_read_nj;
}

void
EnergyAccounting::resetTotals(Cycle now)
{
    totals_ = EnergyTotals{};
    last_integrated_ = now;
    accesses_ = 0;
    ways_probed_sum_ = 0;
}

double
EnergyAccounting::avgWaysProbed() const
{
    return accesses_ > 0 ? static_cast<double>(ways_probed_sum_) /
                               static_cast<double>(accesses_)
                         : 0.0;
}

} // namespace coopsim::energy
