/**
 * @file
 * Banked DRAM timing model.
 *
 * Models the paper's memory system (Table 2): 8 DRAM banks, a 400-cycle
 * access latency, a bounded number of outstanding requests (64) and bus
 * queueing delays. The model is analytic rather than event-driven: each
 * request is assigned a completion cycle when issued, accounting for
 * bank occupancy and the outstanding-request window.
 *
 * Demand accesses (LLC misses) and writebacks/flushes share the banks,
 * so heavy flushing during cache reconfiguration delays demand traffic —
 * the effect behind the paper's Figure 16 discussion.
 */

#ifndef COOPSIM_MEM_DRAM_HPP
#define COOPSIM_MEM_DRAM_HPP

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace coopsim::mem
{

/** Configuration of the DRAM model. */
struct DramConfig
{
    /** Number of independent banks (a power of two). */
    std::uint32_t banks = 8;
    /** End-to-end latency of an unloaded access, in cycles. */
    Tick access_latency = 400;
    /** Cycles a bank stays busy per request (row activation/precharge). */
    Tick bank_occupancy = 40;
    /** Maximum in-flight requests before new ones queue. */
    std::uint32_t max_outstanding = 64;
    /** Block size, used only to slice bank-index bits. */
    std::uint32_t block_bytes = 64;
};

/**
 * Mean of a per-request cycle count, kept as an integer sum and a
 * request count: every DRAM request samples it, so an update is two
 * adds rather than a running-mean divide.
 */
struct CycleMean
{
    std::uint64_t cycles = 0;
    std::uint64_t requests = 0;

    void sample(Tick delay)
    {
        cycles += delay;
        ++requests;
    }
    /** Mean cycles per request (0 before the first request). */
    double mean() const
    {
        return requests == 0 ? 0.0
                             : static_cast<double>(cycles) /
                                   static_cast<double>(requests);
    }
};

/** Running totals for DRAM traffic. */
struct DramStats
{
    stats::Counter reads;          //!< Demand fills.
    stats::Counter writes;         //!< Demand writes (fills for stores).
    stats::Counter writebacks;     //!< Evicted dirty lines.
    stats::Counter flushes;        //!< Dirty lines flushed by partitioning.
    CycleMean queue_delay;         //!< Mean cycles spent queueing.
};

/**
 * Analytic banked DRAM model.
 *
 * Issue order must be non-decreasing in time: the simulation driver
 * advances cores in global cycle order, which guarantees this.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config = DramConfig{});

    /**
     * Issues a demand access (fill for a read or write miss).
     *
     * @param addr Block address (used for bank selection).
     * @param type Read or Write demand.
     * @param now  Issue cycle.
     * @return Cycle at which the data is available at the LLC.
     */
    Cycle access(Addr addr, AccessType type, Cycle now);

    /**
     * Issues a writeback of an evicted dirty block. Occupies a bank but
     * the issuing core does not wait for completion.
     */
    void writeback(Addr addr, Cycle now);

    /**
     * Issues a flush caused by cache repartitioning (cooperative
     * takeover or CPE-style bulk flushing). Counted separately from
     * ordinary writebacks so the benches can report flush traffic.
     *
     * @return Cycle at which the flush completes (CPE stalls on this).
     */
    Cycle flush(Addr addr, Cycle now);

    const DramStats &stats() const { return stats_; }
    const DramConfig &config() const { return config_; }

    /** Resets statistics (not timing state). */
    void resetStats();

    /**
     * Op-sampling support: the simulation clock is about to jump over
     * a fast-forward gap of @p delta cycles starting at @p from, with
     * no requests issued inside it. Timing state still pending at
     * @p from (bank busy-until times, in-flight completions) moves
     * forward by @p delta so the backlog the next detail window sees
     * is the one this window left behind, not a drained queue. State
     * already idle at @p from stays put.
     */
    void carryBacklog(Cycle from, Cycle delta);

  private:
    /** Common path: schedules a request, returns its completion cycle. */
    Cycle schedule(Addr addr, Cycle now);

    std::uint32_t bankOf(Addr addr) const;

    DramConfig config_;
    /** log2(block_bytes): bank bits start above the block offset. */
    std::uint32_t block_bits_;
    /** Cycle at which each bank is next free. */
    std::vector<Cycle> bank_ready_;
    /** Ring of completion cycles of the most recent in-flight requests. */
    std::vector<Cycle> inflight_;
    std::size_t inflight_head_ = 0;
    DramStats stats_;
};

} // namespace coopsim::mem

#endif // COOPSIM_MEM_DRAM_HPP
