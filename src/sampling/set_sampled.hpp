/**
 * @file
 * Set-sampled LLC: a decorator that simulates only the 1-in-S subset
 * of sets the paper's UMON ATD would sample (`set % S == 0`), over an
 * inner LLC built at 1/S the capacity.
 *
 * Addresses mapping to a sampled set are translated into the inner
 * array's (smaller) address space — the translation is bijective per
 * (tag, set) pair so the inner cache sees exactly the conflict
 * behaviour of the sampled sets. Addresses mapping elsewhere never
 * touch the cache model: they are replayed against the DRAM model at
 * the per-core miss and writeback rates the sampled sets measure
 * (integer credit counters, so the replication — like everything else
 * here — is deterministic). Synthetic misses therefore pay the *real*
 * current DRAM queueing delay, and DRAM keeps seeing the full-rate
 * request stream: when memory saturates, sampled cores throttle on
 * the same growing backlog exact cores do. A historical-average
 * latency estimate fails exactly there — the mean lags the growing
 * queue and the unsampled 1-1/S of the traffic stops exerting any
 * back-pressure at all.
 *
 * Statistics are NOT scaled here: the decorator reports the inner
 * (1/S-sized) counters raw, and sim::System::collect() scales them
 * back up, keeping the scale-up policy in one place next to the op-
 * sampling factors.
 */

#ifndef COOPSIM_SAMPLING_SET_SAMPLED_HPP
#define COOPSIM_SAMPLING_SET_SAMPLED_HPP

#include <functional>
#include <memory>
#include <vector>

#include "common/geometry.hpp"
#include "llc/shared_cache.hpp"
#include "mem/dram.hpp"

namespace coopsim::sampling
{

/** Builds the inner (reduced-geometry) LLC — the scheme factory with
 *  the banking decoration already applied (api::makeLlcByName). */
using InnerLlcFactory =
    std::function<std::unique_ptr<llc::Llc>(const llc::LlcConfig &)>;

class SetSampledLlc final : public llc::Llc
{
  public:
    /**
     * @param config  Full-size LLC configuration (the geometry the
     *                run's RunKey describes).
     * @param period  1-in-S set selection; a power of two that divides
     *                the set count (fatal otherwise — the inner array
     *                needs a power-of-two set count of its own).
     * @param dram    The run's memory model; unsampled misses and
     *                writebacks are replayed into it so it stays under
     *                the full-rate load.
     * @param factory Builds the inner LLC from the reduced config.
     */
    SetSampledLlc(const llc::LlcConfig &config, std::uint32_t period,
                  mem::DramModel &dram, const InnerLlcFactory &factory);

    llc::LlcAccess access(CoreId core, Addr addr, AccessType type,
                          Cycle now) override;

    void epoch(Cycle now) override { inner_->epoch(now); }
    /** Forks the inner LLC (nullptr if it cannot fork) and copies the
     *  rate replicators. */
    std::unique_ptr<llc::Llc> fork(mem::DramModel &dram,
                                   const llc::LlcConfig &config) const override;
    double poweredWays() const override { return inner_->poweredWays(); }
    std::vector<std::uint32_t> allocation() const override
    {
        return inner_->allocation();
    }
    llc::Scheme scheme() const override { return inner_->scheme(); }
    void integrateStatic(Cycle now) override
    {
        inner_->integrateStatic(now);
    }
    void resetStats(Cycle now) override { inner_->resetStats(now); }

    /** The full-size configuration, not the inner one: callers asking
     *  the LLC for its geometry must see the run's real topology. */
    const llc::LlcConfig &config() const override { return config_; }
    const llc::CoreLlcStats &coreStats(CoreId core) const override
    {
        return inner_->coreStats(core);
    }
    const llc::TakeoverEventStats &takeoverEvents() const override
    {
        return inner_->takeoverEvents();
    }
    const stats::TimeSeries &flushSeries() const override
    {
        return inner_->flushSeries();
    }
    const std::vector<double> &transferDurations() const override
    {
        return inner_->transferDurations();
    }
    std::uint64_t flushedLines() const override
    {
        return inner_->flushedLines();
    }
    std::uint64_t epochsRun() const override
    {
        return inner_->epochsRun();
    }
    std::uint64_t repartitions() const override
    {
        return inner_->repartitions();
    }
    energy::EnergyTotals energyTotals() const override
    {
        return inner_->energyTotals();
    }
    double avgWaysProbed() const override
    {
        return inner_->avgWaysProbed();
    }
    std::uint32_t banks() const override { return inner_->banks(); }
    Cycle portAccess(Addr addr, Cycle now) override
    {
        return inner_->portAccess(addr, now);
    }
    void carryBacklog(Cycle from, Cycle delta) override
    {
        inner_->carryBacklog(from, delta);
    }
    std::uint64_t bankConflicts() const override
    {
        return inner_->bankConflicts();
    }
    std::uint64_t bankConflictCycles() const override
    {
        return inner_->bankConflictCycles();
    }

    /** 1-in-S selection period. */
    std::uint32_t period() const { return period_; }
    /** The inner (1/S-capacity) LLC, for tests. */
    const llc::Llc &inner() const { return *inner_; }

  private:
    /** fork()'s copy: @p warmed's replicators over the forked
     *  @p inner. */
    SetSampledLlc(const SetSampledLlc &warmed, const llc::LlcConfig &config,
                  mem::DramModel &dram, std::unique_ptr<llc::Llc> inner);

    /** Maps a sampled full-geometry address into the inner array. */
    Addr translate(Addr addr) const;

    /** The 1/S-capacity config the inner LLC runs under. */
    llc::LlcConfig innerConfig(const llc::LlcConfig &config) const;

    llc::LlcConfig config_;
    std::uint32_t period_;
    std::uint32_t period_bits_;
    AddrSlicer slicer_;
    mem::DramModel *dram_;
    std::unique_ptr<llc::Llc> inner_;
    /**
     * Per-core fixed-denominator rate replicators: each unsampled
     * access adds the sampled miss (writeback) count; crossing the
     * sampled access count emits one synthetic DRAM request. The
     * credits survive resetStats: they are timing-model state (like
     * cache contents), not measurement counters.
     */
    std::vector<std::uint64_t> miss_credit_;
    std::vector<std::uint64_t> wb_credit_;
    /**
     * Cached per-core sampled-rate snapshot {accesses, misses,
     * writebacks}, refreshed from inner_->coreStats() once every
     * kSnapRefresh unsampled accesses. The banked inner cache merges
     * the core's counters from every bank on each coreStats() call, so
     * querying it per access would put a walk over the banks on the
     * hot path; the replicated rates drift slowly enough that a
     * snapshot a few dozen accesses stale is indistinguishable. The
     * refresh period is part of the simulated numbers.
     */
    static constexpr std::uint32_t kSnapRefresh = 64;
    std::vector<std::uint64_t> snap_acc_;
    std::vector<std::uint64_t> snap_miss_;
    std::vector<std::uint64_t> snap_wb_;
    std::vector<std::uint32_t> snap_age_;
};

} // namespace coopsim::sampling

#endif // COOPSIM_SAMPLING_SET_SAMPLED_HPP
