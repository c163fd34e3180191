#include "sim/system.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include <cmath>

#include "api/registry.hpp"
#include "common/logging.hpp"
#include "sampling/set_sampled.hpp"
#include "sampling/window_schedule.hpp"
#include "sim/min_clock_tree.hpp"

namespace coopsim::sim
{

namespace
{

/**
 * Applies the scale preset.
 *
 * Reduced scales shrink instructions, epochs AND the LLC set count by
 * the same factor, keeping the associativity (the partitioning
 * dimension) untouched. This keeps the run a faithful miniature: the
 * fixed costs of a reconfiguration (one line per set per moved way,
 * covering every set to complete a takeover) stay in the same
 * proportion to the work executed as at paper scale. Way counts,
 * utility curves and MPKI are scale-invariant by construction.
 */
void
applyScale(SystemConfig &config, RunScale scale)
{
    auto resize_sets = [&config](std::uint64_t sets) {
        cache::CacheGeometry &g = config.llc.geometry;
        g.size_bytes = sets * g.ways * g.block_bytes;
    };
    switch (scale) {
      case RunScale::Paper:
        config.insts_per_app = 1'000'000'000;
        config.epoch_cycles = 5'000'000;
        config.warmup_insts = 2'000'000;
        config.llc.stale_transition_cycles = 20'000'000;
        break;
      case RunScale::Bench:
        config.insts_per_app = 8'000'000;
        config.epoch_cycles = 300'000;
        config.warmup_insts = 1'200'000;
        config.llc.flush_series_bin = 30'000;
        config.llc.umon_sample_period = 4;
        config.llc.stale_transition_cycles = 1'200'000;
        resize_sets(512);
        break;
      case RunScale::Test:
        config.insts_per_app = 400'000;
        config.epoch_cycles = 60'000;
        config.warmup_insts = 100'000;
        config.llc.flush_series_bin = 10'000;
        config.llc.umon_sample_period = 2;
        config.llc.stale_transition_cycles = 240'000;
        resize_sets(128);
        break;
    }
}

/** The LLC configuration a System with @p config builds. */
llc::LlcConfig
llcConfigOf(const SystemConfig &config)
{
    llc::LlcConfig lc = config.llc;
    lc.num_cores = config.num_cores;
    lc.seed = config.seed;
    return lc;
}

/** Whether @p a and @p b describe one System up to the epoch
 *  decision's settings (and the stream factory, which only the
 *  constructor reads). */
bool
sameButDecision(const SystemConfig &a, const SystemConfig &b)
{
    return a.scheme == b.scheme && a.num_cores == b.num_cores &&
           llc::sameButDecision(a.llc, b.llc) && a.dram == b.dram &&
           a.core == b.core && a.epoch_cycles == b.epoch_cycles &&
           a.insts_per_app == b.insts_per_app &&
           a.warmup_insts == b.warmup_insts && a.seed == b.seed &&
           a.driver == b.driver && a.sampling == b.sampling;
}

/**
 * The global-order event loop's arbitration, built afresh for each of
 * the warm-up and measurement loops from the cores' clocks.
 *
 * The loop picks the laggard core before every quantum, so minCore()
 * dominates the per-op driver. Core clocks are mirrored into a dense
 * array (no unique_ptr chase per comparison) and only the stepped
 * core's mirror is refreshed. The ubiquitous two-core configuration
 * reduces to a single compare; larger systems keep the minimum and the
 * runner-up in a top-2 tournament tree (O(log n) per update, O(1) per
 * query, ties to the lowest index — bit-identical to a linear scan,
 * and a function of the clocks alone, so rebuilding it between the
 * loops changes nothing).
 */
class Arbiter
{
  public:
    Arbiter(const std::vector<std::unique_ptr<core::TraceCore>> &cores,
            DriverMode driver, DriverStats &stats)
        : cores_(cores), n_(static_cast<std::uint32_t>(cores.size())),
          clock_(n_), cap_(driver == DriverMode::PerOp ? 0 : kCycleMax),
          stats_(stats)
    {
        for (std::uint32_t c = 0; c < n_; ++c) {
            clock_[c] = cores_[c]->cycle();
        }
        // The tree exists only when it is consulted; the 1/2-core
        // paths never touch it (and must not — it would go stale).
        if (n_ > 2) {
            tree_.emplace(clock_);
        }
    }

    std::uint32_t
    minCore() const
    {
        if (n_ == 2) {
            return clock_[1] < clock_[0] ? 1u : 0u;
        }
        if (n_ == 1) {
            return 0u;
        }
        return tree_->minIndex();
    }

    Cycle clock(std::uint32_t c) const { return clock_[c]; }

    /**
     * The arbitration winner @p c may run without re-consulting the
     * clock structure for as long as the per-op arbiter would keep
     * picking it — while its clock stays strictly below the
     * runner-up's, or equal when c has the lower index (the scan's tie
     * rule). Folding the tie rule into a half-open bound gives one
     * comparison per op: run while clock < bound. DriverMode::PerOp
     * re-arbitrates after every bundle: its bound is 0, which a
     * quantum's first bundle meets.
     */
    Cycle
    quantumBound(std::uint32_t c) const
    {
        if (n_ == 1) {
            return cap_; // no contender; epochs bound the quantum
        }
        Cycle second;
        std::uint32_t second_index;
        if (n_ == 2) {
            second_index = c ^ 1u;
            second = clock_[second_index];
        } else {
            const MinClockTree::Second runner_up = tree_->secondBest();
            second = runner_up.clock;
            second_index = runner_up.index;
        }
        return std::min(cap_, (c < second_index && second != kCycleMax)
                                  ? second + 1
                                  : second);
    }

    void
    stepQuantum(std::uint32_t c, Cycle bound, InstCount inst_bound)
    {
        stats_.steps += cores_[c]->stepQuantum(bound, inst_bound);
        stats_.quanta += 1;
        refresh(c);
    }

    /** Re-reads core @p c's clock after it moved. */
    void
    refresh(std::uint32_t c)
    {
        clock_[c] = cores_[c]->cycle();
        if (tree_) {
            tree_->update(c, clock_[c]);
        }
    }

  private:
    const std::vector<std::unique_ptr<core::TraceCore>> &cores_;
    std::uint32_t n_;
    std::vector<Cycle> clock_;
    std::optional<MinClockTree> tree_;
    /** kCycleMax under DriverMode::Batched, 0 under PerOp. */
    Cycle cap_;
    DriverStats &stats_;
};

} // namespace

const std::vector<Topology> &
topologyTable()
{
    static const std::vector<Topology> table = {
        {2, 2ull << 20, 8, 15},   // paper Table 2
        {4, 4ull << 20, 16, 20},  // paper Table 2
        {8, 8ull << 20, 32, 25},  // extrapolated (1 MB, 4 ways/core)
        {16, 16ull << 20, 64, 30},
        // Banked rows: associativity saturates at the 64-bit mask
        // width, so capacity keeps scaling at 1 MB/core by slicing the
        // LLC into banks (each bank keeps the full 64 ways).
        {32, 32ull << 20, 64, 35, 2},
        {64, 64ull << 20, 64, 40, 4},
    };
    return table;
}

SystemConfig
makeSystemConfig(std::uint32_t num_cores, const std::string &scheme,
                 RunScale scale)
{
    if (num_cores == 0) {
        COOPSIM_FATAL("system with no cores");
    }
    const std::vector<Topology> &table = topologyTable();
    const Topology *row = nullptr;
    for (const Topology &t : table) {
        if (t.max_cores >= num_cores) {
            row = &t;
            break;
        }
    }
    if (row == nullptr) {
        COOPSIM_FATAL("no topology for ", num_cores,
                      " cores (largest table row serves ",
                      table.back().max_cores, ")");
    }
    // Way partitioning happens per slice: every bank keeps the row's
    // full way count, so the constraint is per-slice ways vs. total
    // cores regardless of how many banks the row splits into.
    if (row->llc_ways < num_cores) {
        COOPSIM_FATAL("topology row for ", row->max_cores,
                      " cores provides ", row->llc_ways,
                      " ways per slice (", row->banks,
                      " bank(s)): way partitioning needs per-slice "
                      "ways >= the ", num_cores, " cores sharing it");
    }

    SystemConfig config;
    config.scheme = scheme;
    config.num_cores = num_cores;
    config.llc.geometry = {row->llc_bytes, row->llc_ways, 64};
    config.llc.num_cores = num_cores;
    config.llc.hit_latency = row->hit_latency;
    config.llc.banks = row->banks;
    applyScale(config, scale);
    return config;
}

System::System(const SystemConfig &config,
               std::vector<trace::AppProfile> apps)
    : config_(config), profiles_(std::move(apps)), dram_(config.dram)
{
    if (profiles_.size() != config_.num_cores) {
        COOPSIM_FATAL("config expects ", config_.num_cores,
                      " applications, got ", profiles_.size());
    }
    const llc::LlcConfig lc = llcConfigOf(config_);
    sampling_ = sampling::resolve(config_.sampling);
    if (sampling_.set_period > 1) {
        llc_ = std::make_unique<sampling::SetSampledLlc>(
            lc, sampling_.set_period, dram_,
            [this](const llc::LlcConfig &inner) {
                return api::makeLlcByName(config_.scheme, inner, dram_);
            });
    } else {
        llc_ = api::makeLlcByName(config_.scheme, lc, dram_);
    }

    // Stream geometry stays the FULL set count even when the LLC is
    // set-sampled: the op streams must be byte-identical to the exact
    // run's so the estimator samples the same workload.
    trace::StreamGeometry sg;
    sg.llc_sets = lc.geometry.numSets();
    sg.block_bytes = lc.geometry.block_bytes;

    // Profiles state phase lengths at paper scale; keep phases spanning
    // the same number of epochs at reduced scales.
    const double phase_factor =
        static_cast<double>(config_.epoch_cycles) / 5'000'000.0;

    for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
        trace::AppProfile scaled = profiles_[c];
        if (scaled.phase_insts != 0) {
            scaled.phase_insts = std::max<InstCount>(
                1, static_cast<InstCount>(
                       static_cast<double>(scaled.phase_insts) *
                       phase_factor));
        }
        const std::uint64_t stream_seed = config_.seed + c * 7919;
        if (config_.stream_factory) {
            streams_.push_back(
                config_.stream_factory(c, scaled, sg, stream_seed));
            COOPSIM_ASSERT(streams_.back() != nullptr,
                           "stream factory returned no stream for core ", c);
        } else {
            streams_.push_back(std::make_unique<trace::SyntheticStream>(
                scaled, sg, c, stream_seed));
        }
        cores_.push_back(std::make_unique<core::TraceCore>(
            c, config_.core, *llc_, *streams_[c]));
    }
}

System::System(const System &warmed, const SystemConfig &variant)
    : config_(variant), profiles_(warmed.profiles_), dram_(warmed.dram_),
      driver_stats_(warmed.driver_stats_), sampling_(warmed.sampling_)
{
}

System::~System() = default;

std::unique_ptr<System>
System::fork(const SystemConfig &variant) const
{
    COOPSIM_ASSERT(sameButDecision(config_, variant),
                   "a System fork may change only the epoch decision's "
                   "settings");
    std::unique_ptr<System> copy(new System(*this, variant));
    copy->llc_ = llc_->fork(copy->dram_, llcConfigOf(variant));
    if (copy->llc_ == nullptr) {
        return nullptr;
    }
    for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
        copy->streams_.push_back(streams_[c]->fork());
        if (copy->streams_.back() == nullptr) {
            return nullptr;
        }
        copy->cores_.push_back(std::make_unique<core::TraceCore>(
            *cores_[c], *copy->llc_, *copy->streams_[c]));
    }
    return copy;
}

RunResult
System::run()
{
    warmUp();
    return measure();
}

void
System::warmUp()
{
    const std::uint32_t n = config_.num_cores;
    driver_stats_ = DriverStats{};
    Arbiter arbiter(cores_, config_.driver, driver_stats_);

    // Run until every core retired warmup_insts. A set-sampled run
    // warms a 1/S-capacity array, which fills S× faster, so warm-up
    // shrinks by the same factor — the argument applyScale already
    // applies when it miniaturises the set count.
    const InstCount warmup_insts =
        sampling_.set_period > 1
            ? std::max<InstCount>(
                  1, config_.warmup_insts / sampling_.set_period)
            : config_.warmup_insts;
    // Retired counts only grow, and only the stepped core's changes,
    // so a count of warm cores replaces a scan of every core.
    std::uint32_t warm_cores = 0;
    for (std::uint32_t c = 0; c < n; ++c) {
        warm_cores += cores_[c]->retired() >= warmup_insts ? 1 : 0;
    }
    while (warm_cores < n) {
        const std::uint32_t c = arbiter.minCore();
        const bool was_warm = cores_[c]->retired() >= warmup_insts;
        // Only c's warm status can change inside its quantum. While
        // any *other* core is still cold the per-op loop cannot exit,
        // so the quantum may run to its clock bound; once every other
        // core is warm it must stop exactly at the step where c
        // crosses the threshold — the per-op loop's exit point.
        const bool others_warm = warm_cores - (was_warm ? 1 : 0) == n - 1;
        arbiter.stepQuantum(c, arbiter.quantumBound(c),
                            others_warm ? warmup_insts : kInstMax);
        if (!was_warm && cores_[c]->retired() >= warmup_insts) {
            ++warm_cores;
        }
    }
    const Cycle now = latestClock();
    for (std::uint32_t c = 0; c < n; ++c) {
        cores_[c]->startMeasurement();
    }
    llc_->resetStats(now);
    dram_.resetStats();
}

RunResult
System::measure()
{
    const std::uint32_t n = config_.num_cores;
    Arbiter arbiter(cores_, config_.driver, driver_stats_);

    // ---- Measurement: run to the per-app quota; keep contending. --------
    const Cycle now = latestClock();
    Cycle next_epoch =
        ((now / config_.epoch_cycles) + 1) * config_.epoch_cycles;
    // Absolute retired-instruction quota targets (kInstMax once
    // reached): stepQuantum's instruction bound stops a quantum on
    // exactly the bundle where measuredInsts() crosses insts_per_app,
    // so the quota mark below records the same (cycle, instruction)
    // point the per-op loop's post-step check would have.
    std::vector<InstCount> quota(n);
    for (std::uint32_t c = 0; c < n; ++c) {
        quota[c] = cores_[c]->retired() + config_.insts_per_app;
    }
    sampling::WindowSchedule windows(sampling_, config_.epoch_cycles,
                                     config_.insts_per_app, now, cores_,
                                     dram_, *llc_);
    std::uint32_t done = 0;
    while (done < n) {
        const std::uint32_t c = arbiter.minCore();

        // The epoch boundary fires when global time (the minimum core
        // clock) crosses it; every other core is already past it.
        if (arbiter.clock(c) >= next_epoch) {
            llc_->epoch(next_epoch);
            next_epoch += config_.epoch_cycles;
            continue;
        }

        arbiter.stepQuantum(
            c,
            std::min({arbiter.quantumBound(c), next_epoch, windows.bound(c)}),
            quota[c]);
        if (cores_[c]->cycle() >= windows.bound(c)) {
            windows.close(*cores_[c], quota[c]);
            arbiter.refresh(c);
        }
        if (cores_[c]->retired() >= quota[c]) {
            cores_[c]->markQuotaReached();
            quota[c] = kInstMax;
            ++done;
        }
    }
    windows.finish(cores_);
    return collect(windows);
}

Cycle
System::latestClock() const
{
    Cycle latest = 0;
    for (const auto &core : cores_) {
        latest = std::max(latest, core->cycle());
    }
    return latest;
}

RunResult
System::collect(const sampling::WindowSchedule &windows)
{
    const std::uint32_t n = config_.num_cores;
    RunResult result;
    const Cycle end = latestClock();
    llc_->integrateStatic(end);
    result.total_cycles = end;

    // ---- Sampling scale-up (src/sampling/sampling.hpp): a set-
    // sampled LLC saw 1/S of the traffic, an op-sampled run simulated
    // only the detail fraction of each window, so counters scale by S
    // and by measured/detail instructions respectively. Means and
    // decision counts (avg ways probed, transfer length, epochs,
    // repartitions) are left alone. Exact runs take every factor = 1.
    const double set_scale =
        sampling_.set_period > 1
            ? static_cast<double>(sampling_.set_period)
            : 1.0;
    const double op_scale_total = windows.opScaleTotal();
    const double run_scale = set_scale * op_scale_total;
    const auto scaled = [](std::uint64_t v, double f) {
        return f == 1.0 ? v
                        : static_cast<std::uint64_t>(std::llround(
                              static_cast<double>(v) * f));
    };

    for (std::uint32_t c = 0; c < n; ++c) {
        AppResult app;
        app.name = profiles_[c].name;
        app.ipc = cores_[c]->ipc();
        app.insts = cores_[c]->measuredInsts();
        app.cycles = cores_[c]->measuredCycles();
        const auto &cs = llc_->coreStats(c);
        const double app_scale = set_scale * windows.opScale(c);
        app.llc_accesses = scaled(cs.accesses.value(), app_scale);
        app.llc_hits = scaled(cs.hits.value(), app_scale);
        app.llc_misses = scaled(cs.misses.value(), app_scale);
        app.mpki = app.insts > 0
                       ? 1000.0 * static_cast<double>(app.llc_misses) /
                             static_cast<double>(app.insts)
                       : 0.0;
        app.ipc_ci =
            windows.ipcCi(c, app.ipc, config_.llc.geometry.numSets());
        result.apps.push_back(std::move(app));
    }
    result.sample_windows = windows.samples();

    // Access-driven totals scale by the full run factor; capacity-
    // driven flush totals scale by the set factor only (a 1/S array
    // holds 1/S of the lines a repartition can flush, and op sampling
    // does not shrink the array). Static energy scales by S alone:
    // the 1/S array leaks 1/S as much over the same wall-cycles.
    const energy::EnergyTotals totals = llc_->energyTotals();
    result.dynamic_energy_nj = totals.dynamicPaper() * run_scale;
    result.data_energy_nj = totals.data_nj * run_scale;
    result.static_energy_nj = totals.static_nj * set_scale;
    result.avg_ways_probed = llc_->avgWaysProbed();

    const auto &ev = llc_->takeoverEvents();
    result.donor_hits = scaled(ev.donor_hits.value(), run_scale);
    result.donor_misses = scaled(ev.donor_misses.value(), run_scale);
    result.recipient_hits = scaled(ev.recipient_hits.value(), run_scale);
    result.recipient_misses =
        scaled(ev.recipient_misses.value(), run_scale);

    const auto &durations = llc_->transferDurations();
    result.completed_transfers = durations.size();
    if (!durations.empty()) {
        // Left fold in container order, like the hand-rolled loop it
        // replaced — the mean stays bit-identical.
        const double sum =
            std::accumulate(durations.begin(), durations.end(), 0.0);
        result.avg_transfer_cycles =
            sum / static_cast<double>(durations.size());
    }
    result.flushed_lines = scaled(llc_->flushedLines(), set_scale);
    result.repartitions = llc_->repartitions();
    result.epochs = llc_->epochsRun();

    const auto &series = llc_->flushSeries();
    result.flush_series_bin = series.binWidth();
    for (std::size_t b = 0; b < series.bins(); ++b) {
        result.flush_series.push_back(scaled(series.bin(b), set_scale));
    }

    // DRAM read/writeback counts are already at the full set rate even
    // under set sampling (the decorator replays unsampled misses and
    // writebacks into the memory model), so they scale by the op
    // factor alone. Flushes come only from the inner 1/S array.
    result.dram_reads =
        scaled(dram_.stats().reads.value(), op_scale_total);
    result.dram_writebacks =
        scaled(dram_.stats().writebacks.value(), op_scale_total);
    result.dram_flushes =
        scaled(dram_.stats().flushes.value(), set_scale);

    // Like the DRAM counters, port conflicts see the full-rate stream
    // under set sampling (every access claims its bank port), so the
    // op factor is the only scale-up they need.
    result.bank_conflicts =
        scaled(llc_->bankConflicts(), op_scale_total);
    result.bank_conflict_cycles =
        scaled(llc_->bankConflictCycles(), op_scale_total);
    return result;
}

} // namespace coopsim::sim
