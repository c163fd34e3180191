#include "llc/schemes.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hpp"

namespace coopsim::llc
{

using cache::fullMask;
using cache::WayMask;

// ---------------------------------------------------------------------------
// MonitorBank

MonitorBank::MonitorBank(const LlcConfig &config)
    : demands_(config.num_cores),
      curves_(config.partitioner != partition::Partitioner::EqualShare)
{
    umon::UmonConfig uc;
    uc.llc_sets = config.geometry.numSets();
    uc.llc_ways = config.geometry.ways;
    uc.block_bytes = config.geometry.block_bytes;
    uc.sample_period = config.umon_sample_period;
    monitors_.reserve(config.num_cores);
    for (std::uint32_t c = 0; c < config.num_cores; ++c) {
        monitors_.emplace_back(uc);
    }
}

void
MonitorBank::observe(CoreId core, Addr addr)
{
    COOPSIM_ASSERT(core < monitors_.size(), "monitor core out of range");
    monitors_[core].access(addr);
}

const std::vector<partition::AppDemand> &
MonitorBank::demands()
{
    if (curves_) {
        for (std::size_t c = 0; c < monitors_.size(); ++c) {
            monitors_[c].missCurve(demands_[c].miss_curve);
            demands_[c].accesses =
                static_cast<double>(monitors_[c].accessCount());
        }
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

const umon::UtilityMonitor &
MonitorBank::monitor(CoreId core) const
{
    COOPSIM_ASSERT(core < monitors_.size(), "monitor core out of range");
    return monitors_[core];
}

// ---------------------------------------------------------------------------
// UnmanagedLlc

UnmanagedLlc::UnmanagedLlc(const LlcConfig &config, mem::DramModel &dram)
    : BaseLlc(config, dram, /*has_partition_hw=*/false)
{
}

LlcAccess
UnmanagedLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    integrateStatic(now);
    const WayMask all = fullMask(array_.ways());
    const Addr aligned = array_.slicer().blockAlign(addr);
    const SetId set = array_.slicer().set(aligned);
    const std::uint32_t probed = array_.ways();

    const auto found = array_.lookup(aligned, all);
    if (found.hit) {
        array_.touch(set, found.way);
        if (isWrite(type)) {
            array_.setDirty(set, found.way, true);
        }
        chargeAccess(core, probed, true, !isWrite(type), isWrite(type),
                     false);
        return {true, false, now + config_.hit_latency, probed};
    }

    const WayId victim = array_.victim(set, all);
    if (array_.validAt(set, victim) && array_.dirtyAt(set, victim)) {
        dram_.writeback(array_.blockAddr(set, victim), now);
        core_stats_[core].writebacks.inc();
    }
    const Cycle done = dram_.access(aligned, type, now);
    array_.insert(aligned, set, victim, core, isWrite(type));
    chargeAccess(core, probed, false, false, true, false);
    return {false, false, done + config_.hit_latency, probed};
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

LlcAccess
FairShareLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    integrateStatic(now);
    COOPSIM_ASSERT(core < masks_.size(), "core out of range");
    const WayMask mask = masks_[core];
    const Addr aligned = array_.slicer().blockAlign(addr);
    const SetId set = array_.slicer().set(aligned);
    const std::uint32_t probed = probes_[core];

    const auto found = array_.lookup(aligned, mask);
    if (found.hit) {
        array_.touch(set, found.way);
        if (isWrite(type)) {
            array_.setDirty(set, found.way, true);
        }
        chargeAccess(core, probed, true, !isWrite(type), isWrite(type),
                     false);
        return {true, false, now + config_.hit_latency, probed};
    }

    const WayId victim = array_.victim(set, mask);
    if (array_.validAt(set, victim) && array_.dirtyAt(set, victim)) {
        dram_.writeback(array_.blockAddr(set, victim), now);
        core_stats_[core].writebacks.inc();
    }
    const Cycle done = dram_.access(aligned, type, now);
    array_.insert(aligned, set, victim, core, isWrite(type));
    chargeAccess(core, probed, false, false, true, false);
    return {false, false, done + config_.hit_latency, probed};
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

WayId
UcpLlc::pickVictim(CoreId core, SetId set)
{
    const WayMask all = fullMask(array_.ways());

    // Invalid ways first.
    for (std::uint32_t w = 0; w < array_.ways(); ++w) {
        if (!array_.validAt(set, w)) {
            return w;
        }
    }

    // Per-core occupancy of this set, on the stack: cores <= ways <= 64
    // (BaseLlc and SetAssocCache assert both bounds).
    std::array<std::uint32_t, 64> counts{};
    for (std::uint32_t w = 0; w < array_.ways(); ++w) {
        const CoreId owner = array_.ownerAt(set, w);
        if (array_.validAt(set, w) && owner < config_.num_cores) {
            ++counts[owner];
        }
    }

    if (counts[core] < alloc_[core]) {
        // Under quota: take the LRU block of an over-quota core.
        WayMask over = 0;
        for (std::uint32_t w = 0; w < array_.ways(); ++w) {
            const CoreId owner = array_.ownerAt(set, w);
            if (array_.validAt(set, w) && owner < config_.num_cores &&
                owner != core && counts[owner] > alloc_[owner]) {
                over |= WayMask{1} << w;
            }
        }
        if (over != 0) {
            return array_.lruValidWay(set, over);
        }
    }

    // At (or above) quota, or nobody to take from: evict own LRU block.
    WayMask own = 0;
    for (std::uint32_t w = 0; w < array_.ways(); ++w) {
        if (array_.validAt(set, w) && array_.ownerAt(set, w) == core) {
            own |= WayMask{1} << w;
        }
    }
    if (own != 0) {
        return array_.lruValidWay(set, own);
    }
    return array_.lruValidWay(set, all);
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
    const WayMask all = fullMask(array_.ways());
    const Addr aligned = array_.slicer().blockAlign(addr);
    const SetId set = array_.slicer().set(aligned);
    const std::uint32_t probed = array_.ways();

    monitors_.observe(core, aligned);

    const auto found = array_.lookup(aligned, all);
    if (found.hit) {
        array_.touch(set, found.way);
        if (isWrite(type)) {
            array_.setDirty(set, found.way, true);
        }
        // UCP hits re-tag the block to the accessor (multiprogrammed
        // workloads have disjoint address spaces, so the owner can only
        // "change" through this path if the same core re-touches it).
        array_.setOwner(set, found.way, core);
        chargeAccess(core, probed, true, !isWrite(type), isWrite(type),
                     true);
        return {true, false, now + config_.hit_latency, probed};
    }

    const WayId victim = pickVictim(core, set);
    if (array_.validAt(set, victim)) {
        const bool foreign = array_.ownerAt(set, victim) != core;
        if (array_.dirtyAt(set, victim)) {
            dram_.writeback(array_.blockAddr(set, victim), now);
            core_stats_[core].writebacks.inc();
            if (foreign) {
                // A donor line displaced during repartitioning: this is
                // UCP's flush traffic (Figs 15/16).
                recordFlush(now);
            }
        }
        if (foreign) {
            noteTakenBlock(core, set, now);
        }
    }
    const Cycle done = dram_.access(aligned, type, now);
    array_.insert(aligned, set, victim, core, isWrite(type));
    chargeAccess(core, probed, false, false, true, true);
    return {false, false, done + config_.hit_latency, probed};
}

void
UcpLlc::epoch(Cycle now)
{
    BaseLlc::epoch(now);

    partition::LookaheadConfig lc;
    lc.threshold = 0.0; // plain UCP: no turn-off threshold
    lc.min_ways_per_app = config_.min_ways_per_core;
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

    const WayMask mask = masks_[core];
    const Addr aligned = array_.slicer().blockAlign(addr);
    const SetId set = array_.slicer().set(aligned);
    const std::uint32_t probed = probes_[core];

    monitors_.observe(core, aligned);

    if (mask == 0) {
        core_stats_[core].bypasses.inc();
        const Cycle done = dram_.access(aligned, type, start);
        chargeAccess(core, 0, false, false, false, true);
        return {false, true, done, 0};
    }

    const auto found = array_.lookup(aligned, mask);
    if (found.hit) {
        array_.touch(set, found.way);
        if (isWrite(type)) {
            array_.setDirty(set, found.way, true);
        }
        chargeAccess(core, probed, true, !isWrite(type), isWrite(type),
                     true);
        return {true, false, start + config_.hit_latency, probed};
    }

    const WayId victim = array_.victim(set, mask);
    if (array_.validAt(set, victim) && array_.dirtyAt(set, victim)) {
        COOPSIM_ASSERT(array_.ownerAt(set, victim) == core,
                       "CPE way holds a foreign dirty block");
        dram_.writeback(array_.blockAddr(set, victim), start);
        core_stats_[core].writebacks.inc();
    }
    const Cycle done = dram_.access(aligned, type, start);
    array_.insert(aligned, set, victim, core, isWrite(type));
    chargeAccess(core, probed, false, false, true, true);
    return {false, false, done + config_.hit_latency, probed};
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
                    dram_.flush(array_.blockAddr(s, way), now);
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
    lc.min_ways_per_app = config_.min_ways_per_core;
    const partition::Allocation next = partition::decidePartition(
        config_.partitioner, demands, config_.geometry.ways, lc);

    // Same confirmation damping as Cooperative — especially important
    // here, where every change flushes whole ways.
    bool confirmed = false;
    if (next.ways == alloc_) {
        pending_count_ = 0;
    } else if (next.ways == pending_alloc_) {
        ++pending_count_;
        confirmed = pending_count_ + 1 >= config_.confirm_epochs;
    } else {
        pending_alloc_ = next.ways;
        pending_count_ = 0;
        confirmed = config_.confirm_epochs <= 1;
    }
    if (confirmed) {
        pending_count_ = 0;
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
    return on + off * config_.drowsy_leak_fraction;
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
                dram_.flush(array_.blockAddr(set, w), now);
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
                dram_.flush(array_.blockAddr(set, w), now);
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
                    dram_.flush(array_.blockAddr(s, w), now);
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

    if (read_mask == 0) {
        // The core owns no ways: the access bypasses the LLC entirely.
        core_stats_[core].bypasses.inc();
        const Cycle done = dram_.access(aligned, type, now);
        chargeAccess(core, 0, false, false, false, true);
        return {false, true, done, 0};
    }

    auto found = array_.lookup(aligned, read_mask);
    participate(core, set, found.hit, now);

    if (found.hit) {
        if (isWrite(type) && !perms_.canWrite(found.way, core)) {
            // Write hit in a way this core is donating: it may not
            // write there any more. participate() has just flushed the
            // line (it was ours and the set was touched), so drop the
            // stale copy and fall through to the miss path, which
            // re-allocates the line in a writable way.
            COOPSIM_ASSERT(!array_.dirtyAt(set, found.way),
                           "dirty line after donor flush");
            array_.invalidate(set, found.way);
            found.hit = false;
        } else {
            array_.touch(set, found.way);
            if (isWrite(type)) {
                array_.setDirty(set, found.way, true);
            }
            chargeAccess(core, probed, true, !isWrite(type),
                         isWrite(type), true);
            return {true, false, now + config_.hit_latency, probed};
        }
    }

    const WayMask write_mask = perms_.writeMask(core);
    if (write_mask == 0) {
        // Only possible when min_ways_per_core is 0 and the core lost
        // everything (it may still be draining reads).
        core_stats_[core].bypasses.inc();
        const Cycle done = dram_.access(aligned, type, now);
        chargeAccess(core, probed, false, false, false, true);
        return {false, true, done, probed};
    }

    // Victim preference: invalid, then stale foreign lines in ways we
    // are receiving (the paper fills incoming lines into the received
    // way), then our own LRU line.
    WayId victim = kNoWay;
    for (WayMask m = write_mask; m != 0; m &= m - 1) {
        const WayId w = cache::lowestWay(m);
        if (!array_.validAt(set, w)) {
            victim = w;
            break;
        }
    }
    if (victim == kNoWay) {
        WayMask stale = 0;
        for (WayMask m = write_mask; m != 0; m &= m - 1) {
            const WayId w = cache::lowestWay(m);
            if (array_.validAt(set, w) &&
                array_.ownerAt(set, w) != core) {
                stale |= WayMask{1} << w;
            }
        }
        if (stale != 0) {
            victim = array_.lruValidWay(set, stale);
            COOPSIM_ASSERT(!array_.dirtyAt(set, victim),
                           "stale foreign line still dirty");
        }
    }
    if (victim == kNoWay) {
        victim = array_.lruValidWay(set, write_mask);
        COOPSIM_ASSERT(victim != kNoWay, "no victim in write mask");
        if (array_.validAt(set, victim) &&
            array_.dirtyAt(set, victim)) {
            dram_.writeback(array_.blockAddr(set, victim), now);
            core_stats_[core].writebacks.inc();
        }
    }

    const Cycle done = dram_.access(aligned, type, now);
    array_.insert(aligned, set, victim, core, isWrite(type));
    chargeAccess(core, probed, false, false, true, true);
    return {false, false, done + config_.hit_latency, probed};
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
    lc.min_ways_per_app = config_.min_ways_per_core;
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

    // Confirmation damping: adopt a changed target only when the last
    // confirm_epochs decisions agree — one noisy epoch cannot trigger
    // a (costly) reconfiguration.
    bool confirmed = false;
    if (next.ways == cur) {
        pending_count_ = 0;
    } else if (next.ways == pending_alloc_) {
        ++pending_count_;
        confirmed = pending_count_ + 1 >= config_.confirm_epochs;
    } else {
        pending_alloc_ = next.ways;
        pending_count_ = 0;
        confirmed = config_.confirm_epochs <= 1;
    }

    if (confirmed) {
        pending_count_ = 0;
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

// ---------------------------------------------------------------------------
// Factory

std::unique_ptr<BaseLlc>
makeLlc(Scheme scheme, const LlcConfig &config, mem::DramModel &dram)
{
    switch (scheme) {
      case Scheme::Unmanaged:
        return std::make_unique<UnmanagedLlc>(config, dram);
      case Scheme::FairShare:
        return std::make_unique<FairShareLlc>(config, dram);
      case Scheme::Ucp:
        return std::make_unique<UcpLlc>(config, dram);
      case Scheme::DynamicCpe:
        return std::make_unique<DynamicCpeLlc>(config, dram);
      case Scheme::Cooperative:
        return std::make_unique<CooperativeLlc>(config, dram);
    }
    COOPSIM_PANIC("unknown scheme");
}

} // namespace coopsim::llc
