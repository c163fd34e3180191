/**
 * @file
 * Dynamic and static energy accounting for the shared LLC.
 *
 * The LLC calls in on every access with the number of tag ways probed
 * and the data movement performed; leakage is integrated lazily over
 * the powered way-count so arbitrary gating patterns (whole ways, or
 * CPE's fractional set regions) are handled uniformly.
 */

#ifndef COOPSIM_ENERGY_ACCOUNTING_HPP
#define COOPSIM_ENERGY_ACCOUNTING_HPP

#include <cstdint>

#include "common/logging.hpp"
#include "common/types.hpp"
#include "energy/cacti_model.hpp"

namespace coopsim::energy
{

/** Accumulated energy, split by component. */
struct EnergyTotals
{
    double tag_nj = 0.0;     //!< tag-way probes
    double data_nj = 0.0;    //!< data-way reads/writes on hits & fills
    double monitor_nj = 0.0; //!< UMON / permission-register activity
    double drain_nj = 0.0;   //!< partitioning-induced block drains
    double static_nj = 0.0;  //!< leakage of powered capacity

    /**
     * The paper's "dynamic energy" (Figs 6, 9, 12): LLC accesses are
     * serial, so the per-access data-way energy is identical across
     * schemes and the savings "come from the tag side only"
     * (Section 2). The figures normalise Unmanaged to almost exactly
     * ways/fair-share ways, which identifies the reported quantity as
     * the scheme-dependent part: tag probes, monitoring hardware and
     * reconfiguration drains.
     */
    double dynamicPaper() const
    {
        return tag_nj + monitor_nj + drain_nj;
    }

    /** Everything that switches: the inclusive dynamic energy. */
    double dynamicTotal() const
    {
        return tag_nj + data_nj + monitor_nj + drain_nj;
    }
};

/**
 * Per-LLC energy meter.
 */
class EnergyAccounting
{
  public:
    /**
     * @param profile  Per-event energies for this cache organisation.
     * @param total_ways Associativity (for powered-fraction bookkeeping).
     */
    EnergyAccounting(const CacheEnergyProfile &profile,
                     std::uint32_t total_ways);

    /**
     * Charges one LLC lookup.
     *
     * @param ways_probed Tag ways consulted by this access.
     * @param data_read   True when a data way is read (hit).
     * @param data_write  True when a data way is written (fill/store).
     * @param monitored   True when monitoring hardware observed it.
     */
    void onAccess(std::uint32_t ways_probed, bool data_read,
                  bool data_write, bool monitored)
    {
        totals_.tag_nj +=
            profile_.tag_probe_nj * static_cast<double>(ways_probed);
        if (data_read) {
            totals_.data_nj += profile_.data_read_nj;
        }
        if (data_write) {
            totals_.data_nj += profile_.data_write_nj;
        }
        if (monitored) {
            totals_.monitor_nj += profile_.monitor_access_nj;
        }
        ++accesses_;
        ways_probed_sum_ += ways_probed;
    }

    /** Charges a block writeback / flush data read + bus driver. */
    void onBlockDrain();

    /**
     * Integrates leakage up to @p now with @p powered_ways powered
     * (may be fractional: CPE powers fractions of ways).
     * Calls must have non-decreasing @p now.
     */
    void integrate(Cycle now, double powered_ways)
    {
        COOPSIM_ASSERT(powered_ways >= 0.0 &&
                           powered_ways <=
                               static_cast<double>(total_ways_) + 1e-9,
                       "powered ways out of range");
        if (now <= last_integrated_) {
            return;
        }
        const double cycles = static_cast<double>(now - last_integrated_);
        totals_.static_nj += cycles * (powered_ways *
                                       profile_.way_leak_nj_per_cycle +
                                       profile_.monitor_leak_nj_per_cycle);
        last_integrated_ = now;
    }

    /** Zeroes the totals; leakage resumes integrating from @p now. */
    void resetTotals(Cycle now);

    const EnergyTotals &totals() const { return totals_; }
    const CacheEnergyProfile &profile() const { return profile_; }

    /** Mean tag ways probed per access so far. */
    double avgWaysProbed() const;

    std::uint64_t accesses() const { return accesses_; }

    /** Total tag ways probed (so banked LLCs can aggregate the exact
     *  cross-bank average instead of averaging per-bank averages). */
    std::uint64_t waysProbedSum() const { return ways_probed_sum_; }

  private:
    CacheEnergyProfile profile_;
    std::uint32_t total_ways_;
    EnergyTotals totals_;
    Cycle last_integrated_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t ways_probed_sum_ = 0;
};

} // namespace coopsim::energy

#endif // COOPSIM_ENERGY_ACCOUNTING_HPP
