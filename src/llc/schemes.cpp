#include "llc/schemes.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hpp"

namespace coopsim::llc
{

using cache::fullMask;
using cache::WayMask;

namespace
{

/** Leakage of a drowsy way relative to a powered one. */
constexpr double kDrowsyLeakFraction = 0.25;

/**
 * Repartition confirmation damping (LlcConfig::confirm_epochs): true
 * when @p next, a target other than @p current, has now been asked for
 * by @p epochs consecutive decisions, so one noisy epoch cannot trigger
 * a costly reconfiguration. @p pending and @p count carry the target
 * awaiting confirmation and its repeats across epochs.
 */
bool
confirmTarget(const std::vector<std::uint32_t> &next,
              const std::vector<std::uint32_t> &current,
              std::uint32_t epochs, std::vector<std::uint32_t> &pending,
              std::uint32_t &count)
{
    if (next == current) {
        count = 0;
        return false;
    }
    if (next == pending) {
        ++count;
    } else {
        pending = next;
        count = 0;
    }
    if (count + 1 < epochs) {
        return false;
    }
    count = 0;
    return true;
}

/** Whether @p config's epoch decision reads the monitors' demands. */
bool
decisionReadsDemands(const LlcConfig &config)
{
    return partition::readsDemands(config.partitioner, config.num_cores,
                                   config.geometry.ways);
}

} // namespace

// ---------------------------------------------------------------------------
// MonitorBank

MonitorBank::MonitorBank(const LlcConfig &config)
    : ways_(config.geometry.ways), demands_(config.num_cores)
{
    if (!decisionReadsDemands(config)) {
        return;
    }
    umon::UmonConfig uc;
    uc.llc_sets = config.geometry.numSets();
    uc.llc_ways = config.geometry.ways;
    uc.block_bytes = config.geometry.block_bytes;
    uc.sample_period = config.umon_sample_period;
    monitors_.reserve(config.num_cores);
    for (std::uint32_t c = 0; c < config.num_cores; ++c) {
        monitors_.emplace_back(uc);
    }
    dense_ = monitors_.data();
}

MonitorBank::MonitorBank(const MonitorBank &other)
    : ways_(other.ways_), demands_(other.demands_)
{
    monitors_.reserve(other.monitors_.size());
    for (const umon::UtilityMonitor &monitor : other.monitors_) {
        monitors_.push_back(monitor);
        monitors_.back().pack();
    }
}

void
MonitorBank::retarget(const LlcConfig &config)
{
    if (decisionReadsDemands(config)) {
        COOPSIM_ASSERT(monitors_.size() == config.num_cores,
                       "a decision that reads demands needs monitors "
                       "from the start of the run");
        return;
    }
    monitors_ = {};
    dense_ = nullptr;
    demands_.assign(config.num_cores, partition::AppDemand{});
}

void
MonitorBank::unpack()
{
    for (umon::UtilityMonitor &monitor : monitors_) {
        monitor.unpack();
    }
    dense_ = monitors_.data();
}

const std::vector<partition::AppDemand> &
MonitorBank::demands()
{
    if (monitors_.empty() && demands_.front().miss_curve.empty()) {
        // Flat curves keep the partitioners' size checks satisfied.
        for (partition::AppDemand &d : demands_) {
            d.miss_curve.assign(ways_ + 1, 0.0);
        }
    }
    for (std::size_t c = 0; c < monitors_.size(); ++c) {
        monitors_[c].missCurve(demands_[c].miss_curve);
        demands_[c].accesses =
            static_cast<double>(monitors_[c].accessCount());
    }
    return demands_;
}

void
MonitorBank::decay()
{
    for (auto &m : monitors_) {
        m.decay();
    }
}

// ---------------------------------------------------------------------------
// UnmanagedLlc

UnmanagedLlc::UnmanagedLlc(const LlcConfig &config, mem::DramModel &dram)
    : BaseLlc(config, dram, /*has_partition_hw=*/false)
{
}

std::unique_ptr<BaseLlc>
UnmanagedLlc::forkScheme(mem::DramModel &dram, const LlcConfig &config) const
{
    return forkCopy(*this, dram, config);
}

LlcAccess
UnmanagedLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    integrateStatic(now);
    const Addr aligned = array_.slicer().blockAlign(addr);
    return accessWithin(core, aligned, array_.slicer().set(aligned),
                        fullMask(array_.ways()), array_.ways(), type, now,
                        false);
}

std::vector<std::uint32_t>
UnmanagedLlc::allocation() const
{
    // No logical partition: report an even split for inspection.
    return std::vector<std::uint32_t>(
        config_.num_cores, config_.geometry.ways / config_.num_cores);
}

// ---------------------------------------------------------------------------
// FairShareLlc

FairShareLlc::FairShareLlc(const LlcConfig &config, mem::DramModel &dram)
    : BaseLlc(config, dram, /*has_partition_hw=*/false),
      masks_(config.num_cores, 0), probes_(config.num_cores, 0)
{
    const std::uint32_t ways = config.geometry.ways;
    const std::uint32_t cores = config.num_cores;
    // Round-robin so a non-divisible split stays within one way.
    for (std::uint32_t w = 0; w < ways; ++w) {
        masks_[w % cores] |= WayMask{1} << w;
        ++probes_[w % cores];
    }
}

std::unique_ptr<BaseLlc>
FairShareLlc::forkScheme(mem::DramModel &dram, const LlcConfig &config) const
{
    return forkCopy(*this, dram, config);
}

LlcAccess
FairShareLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    integrateStatic(now);
    COOPSIM_ASSERT(core < masks_.size(), "core out of range");
    const Addr aligned = array_.slicer().blockAlign(addr);
    return accessWithin(core, aligned, array_.slicer().set(aligned),
                        masks_[core], probes_[core], type, now, false);
}

std::vector<std::uint32_t>
FairShareLlc::allocation() const
{
    return probes_;
}

// ---------------------------------------------------------------------------
// UcpLlc

UcpLlc::UcpLlc(const LlcConfig &config, mem::DramModel &dram)
    : BaseLlc(config, dram, /*has_partition_hw=*/true),
      monitors_(config),
      alloc_(config.num_cores, config.geometry.ways / config.num_cores),
      trackers_(config.num_cores)
{
}

std::unique_ptr<BaseLlc>
UcpLlc::forkScheme(mem::DramModel &dram, const LlcConfig &config) const
{
    auto copy = forkCopy(*this, dram, config);
    copy->monitors_.retarget(config);
    return copy;
}

WayId
UcpLlc::pickVictim(CoreId core, SetId set)
{
    const std::uint32_t ways = array_.ways();
    const WayMask all = fullMask(ways);

    // Invalid ways first.
    const WayMask invalid = all & ~array_.validMask(set);
    if (invalid != 0) {
        return cache::lowestWay(invalid);
    }

    // Every way is valid from here on. One pass reads each way's
    // owner and takes the set's per-core occupancy and the requester's
    // own ways, on the stack: cores <= ways <= 64 (BaseLlc and
    // SetAssocCache assert both bounds).
    const std::uint32_t cores = config_.num_cores;
    std::array<CoreId, 64> owners;
    std::array<std::uint32_t, 64> counts;
    std::fill_n(counts.begin(), cores, 0u);
    WayMask own = 0;
    for (WayId w = 0; w < ways; ++w) {
        const CoreId owner = array_.ownerAt(set, w);
        owners[w] = owner;
        if (owner < cores) {
            ++counts[owner];
        }
        own |= static_cast<WayMask>(owner == core) << w;
    }

    if (counts[core] < alloc_[core]) {
        // Under quota: take the LRU block of an over-quota core (never
        // the requester, which is under its quota).
        WayMask over = 0;
        for (WayId w = 0; w < ways; ++w) {
            const CoreId owner = owners[w];
            if (owner < cores && counts[owner] > alloc_[owner]) {
                over |= WayMask{1} << w;
            }
        }
        if (over != 0) {
            return array_.lruValidWay(set, over);
        }
    }

    // At (or above) quota, or nobody to take from: evict own LRU block.
    return array_.lruValidWay(set, own != 0 ? own : all);
}

void
UcpLlc::noteTakenBlock(CoreId recipient, SetId set, Cycle now)
{
    TransferTracker &t = trackers_[recipient];
    if (t.ways_pending == 0) {
        return;
    }
    ++t.per_set[set];
    if (t.per_set[set] == t.current_target) {
        ++t.sets_at_target;
        if (t.sets_at_target == array_.numSets()) {
            // One more logical way fully realised across all sets.
            transfer_durations_.push_back(
                static_cast<double>(now - t.started));
            --t.ways_pending;
            ++t.current_target;
            t.sets_at_target = 0;
            for (const std::uint32_t c : t.per_set) {
                if (c >= t.current_target) {
                    ++t.sets_at_target;
                }
            }
        }
    }
}

LlcAccess
UcpLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    integrateStatic(now);
    const Addr aligned = array_.slicer().blockAlign(addr);
    const SetId set = array_.slicer().set(aligned);
    const std::uint32_t probed = array_.ways();

    monitors_.observe(core, aligned);

    const auto found = array_.lookup(aligned, fullMask(array_.ways()));
    if (found.hit) {
        // UCP hits re-tag the block to the accessor (multiprogrammed
        // workloads have disjoint address spaces, so the owner can only
        // "change" through this path if the same core re-touches it).
        array_.setOwner(set, found.way, core);
        return serveHit(core, set, found.way, type, probed, now, true);
    }

    const WayId victim = pickVictim(core, set);
    if (array_.validAt(set, victim) &&
        array_.ownerAt(set, victim) != core) {
        if (array_.dirtyAt(set, victim)) {
            // A donor line displaced during repartitioning: its
            // writeback is UCP's flush traffic (Figs 15/16).
            recordFlush(now);
        }
        noteTakenBlock(core, set, now);
    }
    return serveMiss(core, aligned, set, victim, type, probed, now, true);
}

void
UcpLlc::epoch(Cycle now)
{
    BaseLlc::epoch(now);

    partition::LookaheadConfig lc;
    lc.threshold = 0.0; // plain UCP: no turn-off threshold
    const partition::Allocation next = partition::decidePartition(
        config_.partitioner, monitors_.demands(),
        config_.geometry.ways, lc);

    if (next.ways != alloc_) {
        repartitions_.inc();
        setFlushOrigin(now);
        for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
            if (next.ways[c] > alloc_[c]) {
                TransferTracker &t = trackers_[c];
                t.recipient = c;
                t.ways_pending = next.ways[c] - alloc_[c];
                t.current_target = 1;
                t.started = now;
                t.per_set.assign(array_.numSets(), 0);
                t.sets_at_target = 0;
            }
        }
        alloc_ = next.ways;
    }
    monitors_.decay();
}

// ---------------------------------------------------------------------------
// DynamicCpeLlc

DynamicCpeLlc::DynamicCpeLlc(const LlcConfig &config, mem::DramModel &dram)
    : BaseLlc(config, dram, /*has_partition_hw=*/true),
      monitors_(config),
      alloc_(config.num_cores, config.geometry.ways / config.num_cores),
      masks_(config.num_cores, 0), probes_(config.num_cores, 0),
      powered_ways_(config.geometry.ways),
      rng_(config.seed ^ 0xc0ffee)
{
    for (std::uint32_t w = 0; w < config.geometry.ways; ++w) {
        masks_[w % config.num_cores] |= WayMask{1} << w;
        ++probes_[w % config.num_cores];
    }
}

std::unique_ptr<BaseLlc>
DynamicCpeLlc::forkScheme(mem::DramModel &dram, const LlcConfig &config) const
{
    auto copy = forkCopy(*this, dram, config);
    copy->monitors_.retarget(config);
    return copy;
}

double
DynamicCpeLlc::poweredWays() const
{
    return static_cast<double>(powered_ways_);
}

LlcAccess
DynamicCpeLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    integrateStatic(now);
    // A repartition flush blocks the whole LLC (the cost the paper's
    // Dynamic CPE pays on every change).
    const Cycle start = std::max(now, busy_until_);
    const Addr aligned = array_.slicer().blockAlign(addr);

    monitors_.observe(core, aligned);

    const WayMask mask = masks_[core];
    COOPSIM_ASSERT(mask != 0, "core ", core, " owns no way");
    return accessWithin(core, aligned, array_.slicer().set(aligned), mask,
                        probes_[core], type, start, true);
}

void
DynamicCpeLlc::applyAllocation(const std::vector<std::uint32_t> &next,
                               Cycle now)
{
    if (next == alloc_) {
        return;
    }
    repartitions_.inc();
    setFlushOrigin(now);

    // Express current ownership for the planner.
    std::vector<std::vector<WayId>> owned(config_.num_cores);
    for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
        for (WayMask m = masks_[c]; m != 0; m &= m - 1) {
            owned[c].push_back(cache::lowestWay(m));
        }
    }
    std::vector<WayId> off;
    for (WayMask m = off_mask_; m != 0; m &= m - 1) {
        off.push_back(cache::lowestWay(m));
    }

    const partition::TransitionPlan plan =
        partition::planTransition(owned, off, next, rng_);

    // CPE realises the new partition immediately: every way changing
    // hands (or powering off) is flushed and invalidated on the spot.
    Cycle flush_done = now;
    auto drain_way = [&](WayId way) {
        for (SetId s = 0; s < array_.numSets(); ++s) {
            const cache::CacheBlock &blk = array_.block(s, way);
            if (!blk.valid) {
                continue;
            }
            if (blk.dirty) {
                const Cycle done =
                    dram_->flush(array_.blockAddr(s, way), now);
                flush_done = std::max(flush_done, done);
                recordFlush(now);
            }
            array_.invalidate(s, way);
        }
    };

    for (const auto &t : plan.transfers) {
        drain_way(t.way);
        masks_[t.donor] &= ~(WayMask{1} << t.way);
        masks_[t.recipient] |= WayMask{1} << t.way;
    }
    for (const auto &d : plan.drains) {
        drain_way(d.way);
        masks_[d.donor] &= ~(WayMask{1} << d.way);
        off_mask_ |= WayMask{1} << d.way;
    }
    for (const auto &p : plan.power_ons) {
        off_mask_ &= ~(WayMask{1} << p.way);
        masks_[p.recipient] |= WayMask{1} << p.way;
    }
    for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
        probes_[c] = static_cast<std::uint32_t>(std::popcount(masks_[c]));
    }
    powered_ways_ = config_.geometry.ways -
                    static_cast<std::uint32_t>(std::popcount(off_mask_));

    busy_until_ = std::max(busy_until_, flush_done);
    alloc_ = next;
}

void
DynamicCpeLlc::epoch(Cycle now)
{
    BaseLlc::epoch(now);

    // The "profile" of Dynamic CPE: the paper feeds offline profile
    // data to the CPE allocator at runtime. Our synthetic workloads'
    // utility curves are exactly what the monitors measure, so the
    // measured curves stand in for the profile.
    const std::vector<partition::AppDemand> &demands = monitors_.demands();
    partition::LookaheadConfig lc;
    lc.threshold = config_.cpe_gate_threshold;
    const partition::Allocation next = partition::decidePartition(
        config_.partitioner, demands, config_.geometry.ways, lc);

    // Same confirmation damping as Cooperative — especially important
    // here, where every change flushes whole ways.
    if (confirmTarget(next.ways, alloc_, config_.confirm_epochs,
                      pending_alloc_, pending_count_)) {
        applyAllocation(next.ways, now);
    }
    monitors_.decay();
}

// ---------------------------------------------------------------------------
// CooperativeLlc

CooperativeLlc::CooperativeLlc(const LlcConfig &config,
                               mem::DramModel &dram)
    : BaseLlc(config, dram, /*has_partition_hw=*/true),
      monitors_(config),
      perms_(config.geometry.ways, config.num_cores),
      takeover_(config.num_cores, config.geometry.numSets()),
      rng_(config.seed ^ 0x5eed),
      transition_start_(config.geometry.ways, kCycleMax)
{
    for (std::uint32_t w = 0; w < config.geometry.ways; ++w) {
        perms_.setOwner(w, w % config.num_cores);
    }
    perms_.checkInvariants();
}

std::unique_ptr<BaseLlc>
CooperativeLlc::forkScheme(mem::DramModel &dram, const LlcConfig &config) const
{
    auto copy = forkCopy(*this, dram, config);
    copy->monitors_.retarget(config);
    return copy;
}

double
CooperativeLlc::poweredWays() const
{
    const double on = static_cast<double>(perms_.poweredCount());
    if (config_.gating == GatingMode::GatedVdd) {
        return on;
    }
    // Drowsy ways keep leaking at a fraction of full power.
    const double off =
        static_cast<double>(config_.geometry.ways) - on;
    return on + off * kDrowsyLeakFraction;
}

std::vector<std::uint32_t>
CooperativeLlc::allocation() const
{
    std::vector<std::uint32_t> alloc(config_.num_cores, 0);
    for (std::uint32_t w = 0; w < array_.ways(); ++w) {
        const CoreId writer = perms_.writerOf(w);
        if (writer != kNoCore) {
            ++alloc[writer];
        }
    }
    return alloc;
}

std::vector<std::vector<WayId>>
CooperativeLlc::ownedWays() const
{
    std::vector<std::vector<WayId>> owned(config_.num_cores);
    for (std::uint32_t w = 0; w < array_.ways(); ++w) {
        if (perms_.state(w) != WayState::Steady) {
            continue; // in-flight ways cannot be moved again
        }
        const CoreId writer = perms_.writerOf(w);
        if (writer != kNoCore) {
            owned[writer].push_back(w);
        }
    }
    return owned;
}

bool
CooperativeLlc::participate(CoreId core, SetId set, bool would_hit,
                            Cycle now)
{
    bool any_new = false;

    // Donor role: flush own dirty lines in every way being given away.
    const WayMask donating = perms_.donatingMask(core);
    if (donating != 0) {
        for (WayMask m = donating; m != 0; m &= m - 1) {
            const WayId w = cache::lowestWay(m);
            if (array_.validAt(set, w) &&
                array_.ownerAt(set, w) == core &&
                array_.dirtyAt(set, w)) {
                dram_->flush(array_.blockAddr(set, w), now);
                array_.setDirty(set, w, false);
                recordFlush(now);
            }
        }
        if (takeover_.mark(core, set)) {
            any_new = true;
            if (would_hit) {
                events_.donor_hits.inc();
            } else {
                events_.donor_misses.inc();
            }
        }
        if (takeover_.full(core)) {
            completeDonor(core, now, /*forced=*/false);
        }
    }

    // Recipient role: flush the donor's dirty lines in the ways this
    // core is receiving, and set the donor's takeover bit.
    const WayMask receiving = perms_.receivingMask(core);
    if (receiving != 0) {
        for (WayMask m = receiving; m != 0; m &= m - 1) {
            const WayId w = cache::lowestWay(m);
            const CoreId donor = perms_.donorOf(w);
            if (donor == kNoCore) {
                continue; // completed while iterating
            }
            if (array_.validAt(set, w) &&
                array_.ownerAt(set, w) == donor &&
                array_.dirtyAt(set, w)) {
                dram_->flush(array_.blockAddr(set, w), now);
                array_.setDirty(set, w, false);
                recordFlush(now);
            }
            if (takeover_.mark(donor, set)) {
                any_new = true;
                if (would_hit) {
                    events_.recipient_hits.inc();
                } else {
                    events_.recipient_misses.inc();
                }
            }
            if (takeover_.full(donor)) {
                completeDonor(donor, now, /*forced=*/false);
            }
        }
    }
    return any_new;
}

void
CooperativeLlc::completeDonor(CoreId donor, Cycle now, bool forced)
{
    const WayMask donating = perms_.donatingMask(donor);
    for (WayMask m = donating; m != 0; m &= m - 1) {
        const WayId w = cache::lowestWay(m);
        // Evacuate the donor's leftover lines. Dirty stragglers can
        // remain in two cases: a forced (stale) completion, or a donor
        // giving several ways away at once — its single bit vector can
        // be filled by a recipient that only cleans the ways *it* is
        // receiving (the paper shares one vector per donor across all
        // of its donations). Completion flushes whatever is left.
        // Drowsy drains keep the clean lines in place: if the donor
        // re-acquires the way before anyone overwrites them, they hit.
        const bool keep_clean_lines =
            config_.gating == GatingMode::Drowsy &&
            perms_.writerOf(w) == kNoCore;
        for (SetId s = 0; s < array_.numSets(); ++s) {
            if (array_.validAt(s, w) && array_.ownerAt(s, w) == donor) {
                if (array_.dirtyAt(s, w)) {
                    dram_->flush(array_.blockAddr(s, w), now);
                    recordFlush(now);
                    completion_flushes_.inc();
                    array_.setDirty(s, w, false);
                }
                if (!keep_clean_lines) {
                    array_.invalidate(s, w);
                }
            }
        }

        const bool was_transfer = perms_.writerOf(w) != kNoCore;
        perms_.clearRead(w, donor);
        if (!was_transfer) {
            // Drain: nobody left; gate the way off.
            if (config_.gating == GatingMode::GatedVdd) {
                // Gated-Vdd loses the contents: any surviving valid
                // block would be a protocol bug (the donor's were
                // evacuated above; nobody else could write here).
                for (SetId s = 0; s < array_.numSets(); ++s) {
                    COOPSIM_ASSERT(
                        !array_.block(s, w).valid,
                        "valid block in way being powered off");
                }
            }
            perms_.powerOff(w);
        }

        COOPSIM_ASSERT(transition_start_[w] != kCycleMax,
                       "completing a way with no transition start");
        // Fig 15 reports natural takeover latencies; transitions cut
        // short by the staleness bound would distort the average.
        if (was_transfer && !forced) {
            transfer_durations_.push_back(
                static_cast<double>(now - transition_start_[w]));
        }
        transition_start_[w] = kCycleMax;
    }
    if (forced) {
        forced_completions_.inc();
    }
}

void
CooperativeLlc::forceCompleteStale(Cycle now)
{
    for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
        const WayMask donating = perms_.donatingMask(c);
        if (donating == 0) {
            continue;
        }
        bool stale = false;
        for (WayMask m = donating; m != 0; m &= m - 1) {
            const WayId w = cache::lowestWay(m);
            if (transition_start_[w] + config_.stale_transition_cycles <=
                now) {
                stale = true;
                break;
            }
        }
        if (stale) {
            completeDonor(c, now, /*forced=*/true);
        }
    }
}

LlcAccess
CooperativeLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    integrateStatic(now);
    const Addr aligned = array_.slicer().blockAlign(addr);
    const SetId set = array_.slicer().set(aligned);

    monitors_.observe(core, aligned);

    const WayMask read_mask = perms_.readMask(core);
    const std::uint32_t probed = perms_.readCount(core);
    COOPSIM_ASSERT(read_mask != 0, "core ", core, " may read no way");

    const auto found = array_.lookup(aligned, read_mask);
    participate(core, set, found.hit, now);

    if (found.hit) {
        if (!isWrite(type) || perms_.canWrite(found.way, core)) {
            return serveHit(core, set, found.way, type, probed, now, true);
        }
        // Write hit in a way this core is donating: it may not write
        // there any more. participate() has just flushed the line (it
        // was ours and the set was touched), so drop the stale copy and
        // fall through to the miss path, which re-allocates the line
        // in a writable way.
        COOPSIM_ASSERT(!array_.dirtyAt(set, found.way),
                       "dirty line after donor flush");
        array_.invalidate(set, found.way);
    }

    const WayMask write_mask = perms_.writeMask(core);
    COOPSIM_ASSERT(write_mask != 0, "core ", core, " may write no way");

    // Victim preference: invalid, then stale foreign lines in ways we
    // are receiving (the paper fills incoming lines into the received
    // way), then our own line the replacement policy picks. Only the
    // last can be dirty, so only it can cost serveMiss a writeback.
    WayId victim = kNoWay;
    const WayMask invalid = write_mask & ~array_.validMask(set);
    if (invalid != 0) {
        victim = cache::lowestWay(invalid);
    } else {
        // Every way of write_mask is valid.
        WayMask stale = 0;
        for (WayMask m = write_mask; m != 0; m &= m - 1) {
            const WayId w = cache::lowestWay(m);
            stale |= static_cast<WayMask>(array_.ownerAt(set, w) != core)
                     << w;
        }
        if (stale != 0) {
            victim = array_.lruValidWay(set, stale);
            COOPSIM_ASSERT(!array_.dirtyAt(set, victim),
                           "stale foreign line still dirty");
        } else {
            victim = array_.victim(set, write_mask);
        }
    }
    return serveMiss(core, aligned, set, victim, type, probed, now, true);
}

void
CooperativeLlc::epoch(Cycle now)
{
    BaseLlc::epoch(now);

    // Transitions normally run to natural completion, across epoch
    // boundaries when needed (the paper's Fig 15 transfers average
    // 10 M cycles against a 5 M-cycle epoch). Only pathologically old
    // ones — a donor that stopped accessing the cache — are forced.
    forceCompleteStale(now);

    const std::vector<partition::AppDemand> &demands = monitors_.demands();
    partition::LookaheadConfig lc;
    lc.threshold = config_.threshold;
    lc.mode = config_.threshold_mode;
    const partition::Allocation next = partition::decidePartition(
        config_.partitioner, demands, config_.geometry.ways, lc);

    // Logical current allocation: steady ways plus in-flight ways,
    // which already belong to their recipient (it holds RAP+WAP).
    // Only the steady ones can move this epoch; their lists are built
    // only if a move is confirmed below.
    const std::uint32_t n = config_.num_cores;
    std::vector<std::uint32_t> cur(n, 0);
    std::vector<std::uint32_t> steady(n, 0);
    for (std::uint32_t w = 0; w < array_.ways(); ++w) {
        const CoreId writer = perms_.writerOf(w);
        if (writer != kNoCore) {
            ++cur[writer];
            if (perms_.state(w) == WayState::Steady) {
                ++steady[writer];
            }
        }
    }

    if (confirmTarget(next.ways, cur, config_.confirm_epochs,
                      pending_alloc_, pending_count_)) {
        // Clamp movements to what the steady pools permit: ways still
        // in flight cannot be moved again this epoch.
        std::vector<std::uint32_t> donate(n, 0);
        std::vector<std::uint32_t> receive(n, 0);
        std::uint32_t supply = 0;
        std::uint32_t demand = 0;
        const WayMask off_mask = perms_.offMask();
        const auto off_count =
            static_cast<std::uint32_t>(std::popcount(off_mask));
        for (std::uint32_t c = 0; c < n; ++c) {
            if (next.ways[c] < cur[c]) {
                donate[c] = std::min(cur[c] - next.ways[c], steady[c]);
                supply += donate[c];
            } else {
                receive[c] = next.ways[c] - cur[c];
                demand += receive[c];
            }
        }
        supply += off_count;
        while (demand > supply) {
            // Shed the largest unmet demand first.
            std::uint32_t worst = 0;
            for (std::uint32_t c = 1; c < n; ++c) {
                if (receive[c] > receive[worst]) {
                    worst = c;
                }
            }
            COOPSIM_ASSERT(receive[worst] > 0, "demand without receiver");
            --receive[worst];
            --demand;
        }

        // Planner targets expressed over the steady pools only.
        std::vector<std::uint32_t> target(n, 0);
        bool any_move = false;
        for (std::uint32_t c = 0; c < n; ++c) {
            target[c] = steady[c] - donate[c] + receive[c];
            any_move = any_move || donate[c] > 0 || receive[c] > 0;
        }

        if (any_move) {
            repartitions_.inc();
            setFlushOrigin(now);

            std::vector<WayId> off;
            for (WayMask m = off_mask; m != 0; m &= m - 1) {
                off.push_back(cache::lowestWay(m));
            }
            const partition::TransitionPlan plan =
                partition::planTransition(ownedWays(), off, target, rng_);

            // Reset each involved donor's bit vector once; a donor
            // with an in-flight transition restarts its count (the
            // paper: "the first transition will take longer").
            std::vector<bool> reset_done(n, false);
            auto reset_donor = [&](CoreId d) {
                if (!reset_done[d]) {
                    takeover_.reset(d);
                    reset_done[d] = true;
                }
            };

            for (const auto &t : plan.transfers) {
                reset_donor(t.donor);
                perms_.beginTransfer(t.way, t.donor, t.recipient);
                transition_start_[t.way] = now;
            }
            for (const auto &d : plan.drains) {
                reset_donor(d.donor);
                perms_.beginDrain(d.way, d.donor);
                transition_start_[d.way] = now;
            }
            for (const auto &p : plan.power_ons) {
                perms_.setOwner(p.way, p.recipient);
            }
        }
    }

    monitors_.decay();
    perms_.checkInvariants();
}

void
CooperativeLlc::checkInvariants() const
{
    perms_.checkInvariants();
    const bool drowsy = config_.gating == GatingMode::Drowsy;
    for (std::uint32_t w = 0; w < array_.ways(); ++w) {
        for (SetId s = 0; s < array_.numSets(); ++s) {
            const cache::CacheBlock &blk = array_.block(s, w);
            if (!blk.valid) {
                continue;
            }
            COOPSIM_ASSERT(blk.owner < config_.num_cores,
                           "block with rogue owner");
            if (drowsy) {
                // Drowsy mode preserves (clean) orphan lines in dark
                // or re-assigned ways; they must never be dirty once
                // their owner lost write access.
                if (!perms_.powered(w) ||
                    !perms_.canRead(w, blk.owner)) {
                    COOPSIM_ASSERT(!blk.dirty,
                                   "dirty orphan line: way ", w,
                                   " set ", s);
                }
                continue;
            }
            COOPSIM_ASSERT(perms_.powered(w),
                           "valid block in powered-off way ", w);
            COOPSIM_ASSERT(perms_.canRead(w, blk.owner),
                           "block unreachable by its owner: way ", w,
                           " set ", s);
        }
    }
}

} // namespace coopsim::llc
