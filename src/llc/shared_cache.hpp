/**
 * @file
 * Shared last-level cache: configuration, common state and statistics
 * for all five partitioning schemes evaluated in the paper.
 *
 * BaseLlc owns the tag/state array, the connection to DRAM, the energy
 * meter and the per-core counters, and the steps every access shares
 * (hit, dirty-victim writeback and DRAM fill, stats and energy). The
 * scheme subclasses in llc/schemes.hpp state which ways a core may
 * probe and fill, pick their victims and keep their own bookkeeping,
 * and implement the epoch behaviour.
 *
 * Timing convention: access() returns the cycle at which the requested
 * data is available to the core. State changes (fills, evictions) are
 * applied immediately — the usual trace-simulation approximation. A
 * scheme may additionally report the LLC as busy (DynamicCPE stalls all
 * cores during its bulk flushes).
 */

#ifndef COOPSIM_LLC_SHARED_CACHE_HPP
#define COOPSIM_LLC_SHARED_CACHE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "energy/accounting.hpp"
#include "llc/slice_hash.hpp"
#include "mem/dram.hpp"
#include "partition/partitioner.hpp"

namespace coopsim::llc
{

/** Which partitioning scheme an LLC instance implements. */
enum class Scheme : std::uint8_t
{
    Unmanaged,
    FairShare,
    Ucp,
    DynamicCpe,
    Cooperative,
};

/**
 * How unowned ways save static energy (extension; DESIGN.md §8).
 *
 * GatedVdd is the paper's mechanism (Powell et al.): the way loses its
 * contents and its leakage entirely. Drowsy (Flautner et al., which
 * the paper's related work suggests layering on) keeps the contents in
 * a low-voltage state at a fraction of the leakage; a core that
 * re-acquires a drowsy way finds its old (clean) lines still there.
 */
enum class GatingMode : std::uint8_t
{
    GatedVdd,
    Drowsy,
};

/** Configuration of the shared LLC. */
struct LlcConfig
{
    cache::CacheGeometry geometry{2ull << 20, 8, 64};
    std::uint32_t num_cores = 2;
    /** Serial tag+data hit latency (paper: 15 / 20 cycles). */
    Tick hit_latency = 15;
    /** Victim policy within the ways a miss may fill (Unmanaged,
     *  Fair Share, CPE, and Cooperative's own ways). UCP's quota
     *  victim stays LRU by design: its replacement-based enforcement
     *  is defined over LRU blocks. */
    cache::ReplPolicy repl = cache::ReplPolicy::Lru;
    std::uint64_t seed = 1;

    /** Turn-off threshold T for Cooperative (Algorithm 1). */
    double threshold = 0.05;
    partition::ThresholdMode threshold_mode =
        partition::ThresholdMode::MissRatio;
    /** Way-allocation algorithm the epoch decision runs (UCP, CPE and
     *  Cooperative; see partition/partitioner.hpp). */
    partition::Partitioner partitioner =
        partition::Partitioner::Lookahead;
    /** Gating threshold used by Dynamic CPE's profile allocator
     *  (slightly laxer than Cooperative's T, so CPE gates a little
     *  less aggressively, as in the paper's Figures 7/10). */
    double cpe_gate_threshold = 0.035;
    /** UMON dynamic set sampling period. */
    std::uint32_t umon_sample_period = 32;
    /**
     * Repartition confirmation: a changed allocation is adopted only
     * after this many consecutive epochs request the same target
     * (1 = adopt immediately). Dampens decision flapping when the
     * sampled utility curves are noisy, without blocking the
     * energy-motivated way turn-offs (which never reduce misses).
     */
    std::uint32_t confirm_epochs = 2;
    /**
     * Transitions older than this are forced to completion at the next
     * epoch (flushing the remaining dirty donor lines). The paper lets
     * stragglers run on; a bound keeps pathological never-accessed
     * ways from staying in limbo forever.
     */
    Tick stale_transition_cycles = 10'000'000;

    /** Static-saving mechanism for unowned ways (Cooperative only). */
    GatingMode gating = GatingMode::GatedVdd;

    /** Fig 16 time series: bin width (cycles); kFlushSeriesBins bins. */
    Tick flush_series_bin = 500'000;

    /** Bank (slice) count; 1 = the paper's monolithic LLC. The total
     *  geometry is divided set-wise across banks, each bank keeping
     *  the full way count (llc/banked.hpp). */
    std::uint32_t banks = 1;
    /** Slice-selection hash routing accesses to banks. */
    SliceHashKind slice_hash = SliceHashKind::Mod;

    bool operator==(const LlcConfig &) const = default;
};

/**
 * True when @p a and @p b differ at most in the settings only the
 * epoch decision reads: partitioner, threshold and threshold_mode.
 * Until the first epoch fires, LLCs built from such configs evolve
 * identically (apart from the utility monitors, which exist only where
 * partition::readsDemands), so one can continue as the other
 * (Llc::fork).
 */
bool sameButDecision(const LlcConfig &a, const LlcConfig &b);

/** Bins of the Fig 16 flush series, each LlcConfig::flush_series_bin
 *  cycles wide. */
inline constexpr std::uint32_t kFlushSeriesBins = 24;

/** Result of one LLC access. */
struct LlcAccess
{
    bool hit = false;
    /** Cycle at which data is available to the requesting core. */
    Cycle ready_at = 0;
    /** Tag ways probed (the dynamic-energy driver). */
    std::uint32_t ways_probed = 0;
};

/** Per-core LLC counters. */
struct CoreLlcStats
{
    stats::Counter accesses;
    stats::Counter hits;
    stats::Counter misses;
    stats::Counter writebacks;
};

/** Takeover-event breakdown (paper Figure 14). */
struct TakeoverEventStats
{
    stats::Counter donor_hits;
    stats::Counter donor_misses;
    stats::Counter recipient_hits;
    stats::Counter recipient_misses;

    std::uint64_t total() const
    {
        return donor_hits.value() + donor_misses.value() +
               recipient_hits.value() + recipient_misses.value();
    }
};

/**
 * Abstract LLC interface: what the simulated system (cores, collect())
 * and the API layer see. Two concrete families implement it — BaseLlc
 * (the monolithic scheme hierarchy below) and BankedLlc (llc/banked.hpp,
 * a slice-hashed array of BaseLlc banks).
 */
class Llc
{
  public:
    virtual ~Llc() = default;

    Llc &operator=(const Llc &) = delete;

    /**
     * Performs a demand access by @p core.
     *
     * @param core Requesting core.
     * @param addr Byte address (block-aligned internally).
     * @param type Read or Write.
     * @param now  Cycle the request reaches the LLC. Calls must be in
     *             non-decreasing @p now order across all cores.
     */
    virtual LlcAccess access(CoreId core, Addr addr, AccessType type,
                             Cycle now) = 0;

    /**
     * Partitioning-epoch boundary (every 5 M cycles in the paper).
     */
    virtual void epoch(Cycle now) = 0;

    /** Ways currently powered (fractional for set-gated schemes;
     *  averaged over banks for a banked LLC). */
    virtual double poweredWays() const = 0;

    /** Current way allocation per core (logical, for inspection). */
    virtual std::vector<std::uint32_t> allocation() const = 0;

    /** Scheme identity. */
    virtual Scheme scheme() const = 0;

    /** Integrates leakage up to @p now (also called by accesses). */
    virtual void integrateStatic(Cycle now) = 0;

    /**
     * Zeroes all measurement counters (energy, per-core stats, flush
     * series, transfer durations). Cache contents, permissions and
     * monitor state are untouched — used at the end of warm-up.
     */
    virtual void resetStats(Cycle now) = 0;

    // --- inspection -----------------------------------------------------

    virtual const LlcConfig &config() const = 0;
    virtual const CoreLlcStats &coreStats(CoreId core) const = 0;
    virtual const TakeoverEventStats &takeoverEvents() const = 0;
    virtual const stats::TimeSeries &flushSeries() const = 0;
    /** Completed way-transfer durations in cycles (Fig 15). */
    virtual const std::vector<double> &transferDurations() const = 0;
    /** Total lines flushed LLC->memory by partitioning activity. */
    virtual std::uint64_t flushedLines() const = 0;
    /** Partitioning decisions taken. */
    virtual std::uint64_t epochsRun() const = 0;
    /** Epochs whose allocation differed from the previous one. */
    virtual std::uint64_t repartitions() const = 0;
    /** Accumulated energy (summed over banks for a banked LLC). */
    virtual energy::EnergyTotals energyTotals() const = 0;
    /** Mean tag ways probed per access. */
    virtual double avgWaysProbed() const = 0;

    /** Bank (slice) count; 1 for the monolithic schemes. */
    virtual std::uint32_t banks() const { return 1; }
    /** Accesses that found their bank's port busy. */
    virtual std::uint64_t bankConflicts() const { return 0; }
    /** Cycles those accesses waited for the port. */
    virtual std::uint64_t bankConflictCycles() const { return 0; }

    /**
     * Claims @p addr's bank port at @p now without touching the
     * arrays: returns the cycle the access would actually start after
     * any port conflict, holding the port for the usual occupancy.
     * Monolithic schemes have no port model and return @p now. The
     * set-sampling decorator uses this to charge unsampled accesses
     * the same slice contention the sampled ones measure.
     */
    virtual Cycle portAccess(Addr addr, Cycle now)
    {
        (void)addr;
        return now;
    }

    /**
     * Op-sampling support, mirroring mem::DramModel::carryBacklog:
     * port busy-until state pending at @p from moves forward by
     * @p delta when the clock jumps over a fast-forward gap, so slice
     * contention survives the jump. No-op for schemes without a port
     * model.
     */
    virtual void carryBacklog(Cycle from, Cycle delta)
    {
        (void)from;
        (void)delta;
    }

    /**
     * A copy of this LLC's whole state — arrays, permissions, monitors,
     * port and energy meters — that continues independently, issuing
     * its memory traffic to @p dram and running its epochs under
     * @p config. @p config may differ from config() only in the epoch
     * decision's settings (sameButDecision; asserted), so forking
     * before the first epoch yields exactly the LLC @p config would
     * have built and driven through the same accesses. A fork whose
     * decision reads no demands drops the utility monitors; one that
     * reads them must come from an LLC that has them.
     *
     * nullptr (the default) when the LLC cannot be forked: a run over
     * it takes the plain path (sim::RunExecutor warms it up itself).
     */
    virtual std::unique_ptr<Llc> fork(mem::DramModel &dram,
                                      const LlcConfig &config) const
    {
        (void)dram;
        (void)config;
        return nullptr;
    }

    std::uint64_t hitsTotal() const;
    std::uint64_t missesTotal() const;

  protected:
    Llc() = default;
    Llc(const Llc &) = default;
};

/**
 * Abstract monolithic shared LLC: common state and statistics for the
 * five scheme subclasses in llc/schemes.hpp.
 */
class BaseLlc : public Llc
{
  public:
    BaseLlc(const LlcConfig &config, mem::DramModel &dram,
            bool has_partition_hw);

    std::unique_ptr<Llc> fork(mem::DramModel &dram,
                              const LlcConfig &config) const override
    {
        return forkScheme(dram, config);
    }

    /**
     * fork(), typed for BankedLlc's banks. nullptr (the default) for a
     * scheme that does not override it, such as one registered outside
     * the library.
     */
    virtual std::unique_ptr<BaseLlc>
    forkScheme(mem::DramModel &dram, const LlcConfig &config) const
    {
        (void)dram;
        (void)config;
        return nullptr;
    }

    /** Default epoch: no-op (Unmanaged, FairShare). */
    void epoch(Cycle now) override;

    double poweredWays() const override;

    void integrateStatic(Cycle now) override
    {
        energy_.integrate(now, poweredWays());
    }

    void resetStats(Cycle now) override;

    // --- inspection -----------------------------------------------------

    const LlcConfig &config() const override { return config_; }
    const cache::SetAssocCache &array() const { return array_; }
    const energy::EnergyAccounting &energy() const { return energy_; }
    const CoreLlcStats &coreStats(CoreId core) const override;
    const TakeoverEventStats &takeoverEvents() const override
    {
        return events_;
    }
    const stats::TimeSeries &flushSeries() const override
    {
        return flush_series_;
    }
    const std::vector<double> &transferDurations() const override
    {
        return transfer_durations_;
    }
    std::uint64_t flushedLines() const override
    {
        return flushed_lines_.value();
    }
    std::uint64_t epochsRun() const override { return epochs_.value(); }
    std::uint64_t repartitions() const override
    {
        return repartitions_.value();
    }
    energy::EnergyTotals energyTotals() const override
    {
        return energy_.totals();
    }
    double avgWaysProbed() const override
    {
        return energy_.avgWaysProbed();
    }

  protected:
    /** The body of forkScheme() for @p self, a @p Scheme: copies it and
     *  points the copy at @p dram and @p config. */
    template <class Scheme>
    static std::unique_ptr<Scheme> forkCopy(const Scheme &self,
                                            mem::DramModel &dram,
                                            const LlcConfig &config)
    {
        COOPSIM_ASSERT(sameButDecision(self.config_, config),
                       "an LLC fork may change only the epoch decision's "
                       "settings");
        auto copy = std::make_unique<Scheme>(self);
        copy->dram_ = &dram;
        copy->config_ = config;
        return copy;
    }

    // --- the shared steps of an access ---------------------------------
    //
    // A scheme's access() states which ways @p core may probe and fill
    // and keeps its own bookkeeping; these steps do the rest. @p aligned
    // is the block-aligned address, @p set its set, @p probed the tag
    // ways the access probes, @p start the cycle it begins (later than
    // its arrival while Dynamic CPE's flush blocks the LLC), and
    // @p monitored whether the scheme's UMONs observe it (charged as
    // monitor energy).

    /** A hit in (set, way): refreshes the way's recency, dirties it on
     *  a write; the data is ready hit_latency after @p start. */
    LlcAccess serveHit(CoreId core, SetId set, WayId way, AccessType type,
                       std::uint32_t probed, Cycle start, bool monitored)
    {
        array_.touch(set, way);
        if (isWrite(type)) {
            array_.setDirty(set, way, true);
        }
        chargeAccess(core, probed, true, !isWrite(type), isWrite(type),
                     monitored);
        return {true, start + config_.hit_latency, probed};
    }

    /** A miss filling (set, victim): writes a dirty victim back, reads
     *  the block from DRAM and installs it as @p core's. */
    LlcAccess serveMiss(CoreId core, Addr aligned, SetId set, WayId victim,
                        AccessType type, std::uint32_t probed, Cycle start,
                        bool monitored)
    {
        if (array_.validAt(set, victim) && array_.dirtyAt(set, victim)) {
            dram_->writeback(array_.blockAddr(set, victim), start);
            core_stats_[core].writebacks.inc();
        }
        const Cycle done = dram_->access(aligned, type, start);
        array_.insert(aligned, set, victim, core, isWrite(type));
        chargeAccess(core, probed, false, false, true, monitored);
        return {false, done + config_.hit_latency, probed};
    }

    /** The whole access confined to @p mask: a hit in it, or a miss
     *  filling the replacement policy's victim among its ways. */
    LlcAccess accessWithin(CoreId core, Addr aligned, SetId set,
                           cache::WayMask mask, std::uint32_t probed,
                           AccessType type, Cycle start, bool monitored)
    {
        const cache::LookupResult found = array_.lookup(aligned, mask);
        if (found.hit) {
            return serveHit(core, set, found.way, type, probed, start,
                            monitored);
        }
        return serveMiss(core, aligned, set, array_.victim(set, mask),
                         type, probed, start, monitored);
    }

    /** Charges an access to the meters and per-core stats. */
    void chargeAccess(CoreId core, std::uint32_t ways_probed, bool hit,
                      bool data_read, bool data_write, bool monitored)
    {
        CoreLlcStats &cs = core_stats_[core];
        cs.accesses.inc();
        if (hit) {
            cs.hits.inc();
        } else {
            cs.misses.inc();
        }
        energy_.onAccess(ways_probed, data_read, data_write, monitored);
    }

    /** Records a partitioning-induced flush of one line at @p now. */
    void recordFlush(Cycle now);

    /** Marks the time origin for the Fig 16 flush series. */
    void setFlushOrigin(Cycle now) { flush_origin_ = now; }

    LlcConfig config_;
    cache::SetAssocCache array_;
    /** Where misses, writebacks and flushes go; a fork rebinds it. */
    mem::DramModel *dram_;
    energy::EnergyAccounting energy_;
    std::vector<CoreLlcStats> core_stats_;
    TakeoverEventStats events_;
    stats::TimeSeries flush_series_;
    Cycle flush_origin_ = 0;
    std::vector<double> transfer_durations_;
    stats::Counter flushed_lines_;
    stats::Counter epochs_;
    stats::Counter repartitions_;
};

} // namespace coopsim::llc

#endif // COOPSIM_LLC_SHARED_CACHE_HPP
