/**
 * @file
 * The five LLC management schemes the paper evaluates (Section 3.4):
 *
 *  - UnmanagedLlc:   no partitioning; global LRU; every access probes
 *                    every way; nothing is ever powered off.
 *  - FairShareLlc:   static equal way split, way-aligned; each core
 *                    probes only its own ways. The normalisation
 *                    baseline of every figure.
 *  - UcpLlc:         Qureshi & Patt's utility-based partitioning with
 *                    the look-ahead allocator. Logical partitions only:
 *                    data is not way-aligned, so every access probes
 *                    all ways and no way can be gated. Partitions are
 *                    realised lazily, by replacement on recipient
 *                    misses.
 *  - DynamicCpeLlc:  the paper's dynamicised version of CPE (Reddy &
 *                    Petrov): profile-style way allocations, way-aligned
 *                    with gating, but every repartition immediately
 *                    flushes and invalidates the ways that change hands,
 *                    stalling the LLC.
 *  - CooperativeLlc: the paper's contribution. Way-aligned partitions
 *                    via RAP/WAP registers, thresholded look-ahead
 *                    allocation, cooperative takeover with per-set bit
 *                    vectors, and gated-Vdd power-off of unowned ways.
 */

#ifndef COOPSIM_LLC_SCHEMES_HPP
#define COOPSIM_LLC_SCHEMES_HPP

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "llc/permissions.hpp"
#include "llc/shared_cache.hpp"
#include "llc/takeover.hpp"
#include "partition/transition_plan.hpp"
#include "umon/umon.hpp"

namespace coopsim::llc
{

/** Shared helper: per-core UMON bank + look-ahead glue. */
class MonitorBank
{
  public:
    MonitorBank(const LlcConfig &config);

    void observe(CoreId core, Addr addr);
    /**
     * The per-core demands for this epoch's partitioning decision,
     * refreshed in place (the storage lives across epochs). Under
     * the equalshare partitioner, which reads only their count, the
     * curves are not computed.
     */
    const std::vector<partition::AppDemand> &demands();
    void decay();
    const umon::UtilityMonitor &monitor(CoreId core) const;

  private:
    std::vector<umon::UtilityMonitor> monitors_;
    std::vector<partition::AppDemand> demands_;
    /** False under equalshare: demands() skips the curves. */
    bool curves_;
};

/** No partitioning at all. */
class UnmanagedLlc final : public BaseLlc
{
  public:
    UnmanagedLlc(const LlcConfig &config, mem::DramModel &dram);

    LlcAccess access(CoreId core, Addr addr, AccessType type,
                     Cycle now) override;
    std::vector<std::uint32_t> allocation() const override;
    Scheme scheme() const override { return Scheme::Unmanaged; }
};

/** Static equal, way-aligned split. */
class FairShareLlc final : public BaseLlc
{
  public:
    FairShareLlc(const LlcConfig &config, mem::DramModel &dram);

    LlcAccess access(CoreId core, Addr addr, AccessType type,
                     Cycle now) override;
    std::vector<std::uint32_t> allocation() const override;
    Scheme scheme() const override { return Scheme::FairShare; }

    /** The fixed probe mask of @p core. */
    cache::WayMask maskOf(CoreId core) const { return masks_[core]; }

  private:
    std::vector<cache::WayMask> masks_;
    /** Ways in each mask: the per-access probe count, cached. */
    std::vector<std::uint32_t> probes_;
};

/** Utility-based cache partitioning (logical ways, lazy enforcement). */
class UcpLlc final : public BaseLlc
{
  public:
    UcpLlc(const LlcConfig &config, mem::DramModel &dram);

    LlcAccess access(CoreId core, Addr addr, AccessType type,
                     Cycle now) override;
    void epoch(Cycle now) override;
    std::vector<std::uint32_t> allocation() const override
    {
        return alloc_;
    }
    Scheme scheme() const override { return Scheme::Ucp; }

    const MonitorBank &monitors() const { return monitors_; }

  private:
    /**
     * Tracks the physical realisation of an allocation increase: UCP
     * only moves blocks when the recipient misses, so a "way transfer"
     * completes when every set has given the recipient one more block
     * (the quantity Figure 15 reports).
     */
    struct TransferTracker
    {
        CoreId recipient = kNoCore;
        std::uint32_t ways_pending = 0;   //!< transfers not yet complete
        std::uint32_t current_target = 1; //!< per-set blocks for way #n
        Cycle started = 0;
        std::vector<std::uint32_t> per_set; //!< blocks taken per set
        std::uint32_t sets_at_target = 0;
    };

    WayId pickVictim(CoreId core, SetId set);
    void noteTakenBlock(CoreId recipient, SetId set, Cycle now);

    MonitorBank monitors_;
    std::vector<std::uint32_t> alloc_;
    std::vector<TransferTracker> trackers_;
};

/** Profile-driven set/way partitioning with bulk flushing on change. */
class DynamicCpeLlc final : public BaseLlc
{
  public:
    DynamicCpeLlc(const LlcConfig &config, mem::DramModel &dram);

    LlcAccess access(CoreId core, Addr addr, AccessType type,
                     Cycle now) override;
    void epoch(Cycle now) override;
    std::vector<std::uint32_t> allocation() const override
    {
        return alloc_;
    }
    Scheme scheme() const override { return Scheme::DynamicCpe; }
    double poweredWays() const override;

    /** Cycle until which the LLC is blocked by a repartition flush. */
    Cycle busyUntil() const { return busy_until_; }

  private:
    void applyAllocation(const std::vector<std::uint32_t> &next,
                         Cycle now);

    MonitorBank monitors_;
    std::vector<std::uint32_t> alloc_;
    std::vector<cache::WayMask> masks_;
    cache::WayMask off_mask_ = 0;
    /** Ways in each of masks_ and ways not in off_mask_, cached: every
     *  access reads both counts, every repartition refreshes them. */
    std::vector<std::uint32_t> probes_;
    std::uint32_t powered_ways_ = 0;
    Cycle busy_until_ = 0;
    Rng rng_;
    /** Pending target awaiting confirmation (see confirm_epochs). */
    std::vector<std::uint32_t> pending_alloc_;
    std::uint32_t pending_count_ = 0;
};

/** The paper's Cooperative Partitioning. */
class CooperativeLlc final : public BaseLlc
{
  public:
    CooperativeLlc(const LlcConfig &config, mem::DramModel &dram);

    LlcAccess access(CoreId core, Addr addr, AccessType type,
                     Cycle now) override;
    void epoch(Cycle now) override;
    std::vector<std::uint32_t> allocation() const override;
    Scheme scheme() const override { return Scheme::Cooperative; }
    double poweredWays() const override;

    const PermissionFile &permissions() const { return perms_; }
    const TakeoverDirectory &takeover() const { return takeover_; }
    const MonitorBank &monitors() const { return monitors_; }
    /** Transitions forced to completion at an epoch boundary. */
    std::uint64_t forcedCompletions() const
    {
        return forced_completions_.value();
    }

    /** Dirty lines flushed at completion time (stragglers from multi-
     *  way donations sharing one takeover vector; see completeDonor). */
    std::uint64_t completionFlushes() const
    {
        return completion_flushes_.value();
    }

    /**
     * Validates the way-alignment invariants: permission legality plus
     * "every valid block lies in a way its owner may read".
     */
    void checkInvariants() const;

  private:
    /**
     * Takeover participation of an access by @p core to @p set: flushes
     * the donor's dirty lines in transferring ways and sets takeover
     * bits (paper Section 2.3). Returns true if any new bit was set.
     */
    bool participate(CoreId core, SetId set, bool would_hit, Cycle now);

    /** Finishes all transitions whose donor is @p donor. */
    void completeDonor(CoreId donor, Cycle now, bool forced);

    /**
     * Forces completion of transitions older than the configured
     * staleness bound (flushing leftover dirty donor lines). Ordinary
     * transitions are left to finish naturally, even across epochs, as
     * in the paper.
     */
    void forceCompleteStale(Cycle now);

    /** Ways each core fully owns (steady RAP=WAP), i.e. movable ways. */
    std::vector<std::vector<WayId>> ownedWays() const;

    MonitorBank monitors_;
    PermissionFile perms_;
    TakeoverDirectory takeover_;
    Rng rng_;
    /** Transition start cycle per way (kCycleMax when steady). */
    std::vector<Cycle> transition_start_;
    stats::Counter forced_completions_;
    stats::Counter completion_flushes_;
    /** Pending target awaiting confirmation (see confirm_epochs). */
    std::vector<std::uint32_t> pending_alloc_;
    std::uint32_t pending_count_ = 0;
};

} // namespace coopsim::llc

#endif // COOPSIM_LLC_SCHEMES_HPP
