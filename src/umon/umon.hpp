/**
 * @file
 * Utility monitors (UMON) with dynamic set sampling.
 *
 * Re-implementation of the monitoring hardware from Qureshi & Patt,
 * "Utility-Based Cache Partitioning" (MICRO 2006), which the paper
 * adopts unchanged (Section 2.1): each core has an auxiliary tag
 * directory (ATD) covering a sampled subset of LLC sets with the full
 * LLC associativity and true-LRU replacement. Hit counters are kept per
 * recency position; by the LRU stack property, an access hitting at
 * stack position p would hit in any allocation of more than p ways.
 *
 * From the counters, missCurve() yields the expected number of misses
 * for every possible way allocation — the input to the look-ahead
 * partitioning algorithms in src/partition.
 */

#ifndef COOPSIM_UMON_UMON_HPP
#define COOPSIM_UMON_UMON_HPP

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"

namespace coopsim::umon
{

/** Configuration of one per-core monitor. */
struct UmonConfig
{
    /** Number of sets of the monitored LLC. */
    std::uint32_t llc_sets = 2048;
    /** LLC associativity (ATD ways). */
    std::uint32_t llc_ways = 8;
    /** LLC block size. */
    std::uint32_t block_bytes = 64;
    /** Monitor every Nth set; 1 = full ATD. A power of two that
     *  divides llc_sets. */
    std::uint32_t sample_period = 32;
};

/**
 * One core's utility monitor.
 */
class UtilityMonitor
{
  public:
    explicit UtilityMonitor(const UmonConfig &config);

    /**
     * Observes an LLC access (demand reference) by the owning core.
     * Only references to sampled sets update the ATD.
     */
    void access(Addr addr);

    /**
     * Expected misses for each allocation size, scaled back up by the
     * sampling factor, written into @p curve. The buffer is resized
     * only when it is not already ways+1 long, so a caller refreshing
     * one buffer every epoch allocates once.
     *
     * On return curve[w] = expected misses had the core owned w ways;
     * curve[0] counts every reference as a miss, and the curve is
     * monotone non-increasing (LRU stack property).
     */
    void missCurve(std::vector<double> &curve) const;

    /** Raw per-recency-position hit counters (position 0 = MRU). */
    const std::vector<std::uint64_t> &positionHits() const
    {
        return position_hits_;
    }

    std::uint64_t missCount() const { return misses_; }
    std::uint64_t accessCount() const { return accesses_; }

    /**
     * Halves every counter. Called at each partitioning epoch so the
     * curves track phase behaviour (as in the UCP paper).
     */
    void decay();

    /** Zeroes all counters and invalidates the ATD. */
    void reset();

    const UmonConfig &config() const { return config_; }

    /** True if @p set index is one of the sampled sets. */
    bool sampled(SetId set) const
    {
        return (set & (config_.sample_period - 1)) == 0;
    }

  private:
    /** Lets tests load counters no simulated run reaches (2^52). */
    friend struct UmonTestAccess;

    /** Tag of an empty ATD slot. No real tag reaches it: the slicer
     *  shifts every tag right by block_bits + set_bits >= 1 bits. */
    static constexpr Addr kEmptyTag = ~Addr{0};

    UmonConfig config_;
    AddrSlicer slicer_;
    /** log2(sample_period): sampled set s owns ATD row s >> shift. */
    std::uint32_t sample_shift_ = 0;
    /**
     * The ATD, llc_ways tags per sampled set. Each row is a true-LRU
     * recency stack — the MRU tag first, kEmptyTag slots at the tail —
     * so a hit's recency position is its index and the last slot of a
     * full row is the LRU victim: no timestamps are kept.
     */
    std::vector<Addr> atd_;
    std::vector<std::uint64_t> position_hits_;
    std::uint64_t misses_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t sampled_refs_ = 0;
};

} // namespace coopsim::umon

#endif // COOPSIM_UMON_UMON_HPP
