#include "sim/system.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

#include <cmath>

#include "api/registry.hpp"
#include "common/logging.hpp"
#include "sampling/set_sampled.hpp"
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
    llc::LlcConfig lc = config_.llc;
    lc.num_cores = config_.num_cores;
    lc.seed = config_.seed;
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

System::~System() = default;

RunResult
System::run()
{
    const std::uint32_t n = config_.num_cores;
    const bool batched = config_.driver == DriverMode::Batched;
    constexpr InstCount kNoInstBound =
        std::numeric_limits<InstCount>::max();
    constexpr Cycle kNoCycleBound = std::numeric_limits<Cycle>::max();
    driver_stats_ = DriverStats{};

    // The global-order event loop picks the laggard core before every
    // quantum, so min_core() dominates the per-op driver. Core clocks
    // are mirrored into a dense local array (no unique_ptr chase per
    // comparison) and only the stepped core's mirror is refreshed. The
    // ubiquitous two-core configuration reduces to a single compare;
    // larger systems keep the minimum and the runner-up in a top-2
    // tournament tree (O(log n) per update, O(1) per query, ties to
    // the lowest index — bit-identical to a linear scan).
    std::vector<Cycle> clock(n);
    for (std::uint32_t c = 0; c < n; ++c) {
        clock[c] = cores_[c]->cycle();
    }
    // The tree exists only when it is consulted; the 1/2-core paths
    // never touch it (and must not — it would go stale).
    std::optional<MinClockTree> tree;
    if (n > 2) {
        tree.emplace(clock);
    }
    auto min_core = [&]() -> std::uint32_t {
        if (n == 2) {
            return clock[1] < clock[0] ? 1u : 0u;
        }
        if (n == 1) {
            return 0u;
        }
        return tree->minIndex();
    };
    // Per-op reference driver: one bundle per arbitration.
    auto step = [&](std::uint32_t c) {
        cores_[c]->step();
        clock[c] = cores_[c]->cycle();
        if (tree) {
            tree->update(c, clock[c]);
        }
        driver_stats_.quanta += 1;
        driver_stats_.steps += 1;
    };
    // Batched driver: the arbitration winner c may run without
    // re-consulting the clock structure for as long as the per-op
    // arbiter would keep picking it — while its clock stays strictly
    // below the runner-up's, or equal when c has the lower index (the
    // scan's tie rule). Folding the tie rule into a half-open bound
    // gives one comparison per op: run while clock[c] < bound.
    auto quantum_bound = [&](std::uint32_t c) -> Cycle {
        if (n == 1) {
            return kCycleMax; // no contender; epochs bound the quantum
        }
        Cycle second;
        std::uint32_t second_index;
        if (n == 2) {
            second_index = c ^ 1u;
            second = clock[second_index];
        } else {
            const MinClockTree::Second runner_up = tree->secondBest();
            second = runner_up.clock;
            second_index = runner_up.index;
        }
        return (c < second_index && second != kCycleMax) ? second + 1
                                                         : second;
    };
    auto step_quantum = [&](std::uint32_t c, Cycle bound,
                            InstCount inst_bound) {
        driver_stats_.steps +=
            cores_[c]->stepQuantum(bound, inst_bound);
        driver_stats_.quanta += 1;
        clock[c] = cores_[c]->cycle();
        if (tree) {
            tree->update(c, clock[c]);
        }
    };

    // ---- Warm-up: run until every core retired warmup_insts. ------------
    // A set-sampled run warms a 1/S-capacity array, which fills S×
    // faster, so warm-up shrinks by the same factor — the argument
    // applyScale already applies when it miniaturises the set count.
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
        const std::uint32_t c = min_core();
        const bool was_warm = cores_[c]->retired() >= warmup_insts;
        if (batched) {
            // Only c's warm status can change inside its quantum.
            // While any *other* core is still cold the per-op loop
            // cannot exit, so the quantum may run to its clock bound;
            // once every other core is warm it must stop exactly at
            // the step where c crosses the threshold — the per-op
            // loop's exit point.
            const bool others_warm =
                warm_cores - (was_warm ? 1 : 0) == n - 1;
            step_quantum(c, quantum_bound(c),
                         others_warm ? warmup_insts : kNoInstBound);
        } else {
            step(c);
        }
        if (!was_warm && cores_[c]->retired() >= warmup_insts) {
            ++warm_cores;
        }
    }
    Cycle now = 0;
    for (std::uint32_t c = 0; c < n; ++c) {
        now = std::max(now, cores_[c]->cycle());
        cores_[c]->startMeasurement();
    }
    llc_->resetStats(now);
    dram_.resetStats();

    // ---- Measurement: run to the per-app quota; keep contending. --------
    Cycle next_epoch =
        ((now / config_.epoch_cycles) + 1) * config_.epoch_cycles;
    std::uint32_t done = 0;
    std::vector<bool> finished(n, false);
    // Absolute retired-instruction quota targets: stepQuantum's
    // instruction bound stops a quantum on exactly the bundle where
    // measuredInsts() crosses insts_per_app, so the quota mark below
    // records the same (cycle, instruction) point the per-op loop's
    // post-step check would have.
    std::vector<InstCount> quota_target(n);
    for (std::uint32_t c = 0; c < n; ++c) {
        quota_target[c] = cores_[c]->retired() + config_.insts_per_app;
    }

    // ---- Sampling windows (src/sampling/): when the run samples,
    // the measurement phase is cut into windows on the GLOBAL clock —
    // detail regions every core simulates exactly, alternating with
    // fast-forward gaps every core jumps over analytically (clock
    // advanced to the next detail region, retired instructions
    // extrapolated at the closed window's IPC; no ops generated, no
    // LLC traffic). Anchoring the schedule on shared cycle boundaries
    // keeps all cores in detail simultaneously, so the contention a
    // detail window observes (DRAM queueing, shared-LLC interference)
    // is representative — per-core instruction windows would let one
    // core measure while its rivals skip, biasing IPC high. Set-only
    // runs keep ff at 0 and use the windows purely as variance
    // samples. The window period derives from the warmup CPI (a pure
    // function of simulated state, so the schedule is deterministic
    // and identical across driver modes).
    window_ipc_.assign(n, stats::Average{});
    detail_insts_.assign(n, 0);
    sample_windows_ = 0;
    const bool windows = sampling_.windows > 0;
    const bool ff_enabled = windows && sampling_.fast_forward;
    // Epoch-aligned anchor: the window schedule tiles each epoch the
    // same way, so detail coverage per epoch is uniform.
    const Cycle anchor =
        (now / config_.epoch_cycles) * config_.epoch_cycles;
    Cycle period_cycles = 1;
    Cycle detail_cycles = 1;
    std::vector<InstCount> win_start_insts(n, 0);
    std::vector<Cycle> win_start_cycle(n, 0);
    std::vector<Cycle> detail_end(n, kNoCycleBound);
    // Once every core has closed the window ending at gap_boundary,
    // the shared contention state (DRAM queues, LLC bank ports) is
    // shifted over the fast-forward gap — see carryBacklog().
    Cycle gap_boundary = 0;
    std::uint32_t gap_jumpers = 0;
    if (windows) {
        double cpi_est = 0.0;
        for (std::uint32_t c = 0; c < n; ++c) {
            cpi_est += static_cast<double>(cores_[c]->cycle()) /
                       static_cast<double>(
                           std::max<InstCount>(1, cores_[c]->retired()));
        }
        cpi_est /= static_cast<double>(n);
        const double expected_cycles =
            static_cast<double>(config_.insts_per_app) * cpi_est;
        // The period is locked to an integer divisor of the epoch so
        // every partitioning epoch contains the same number of detail
        // regions: a free-running period lets whole epochs fall into
        // fast-forward gaps, and an epoch whose UMON counters saw no
        // traffic reads every app as idle — the takeover logic then
        // strips ways from exactly the fast apps the estimator is
        // supposed to measure.
        const double target_per_epoch =
            sampling_.windows *
            static_cast<double>(config_.epoch_cycles) /
            std::max(1.0, expected_cycles);
        const Cycle per_epoch = std::max<Cycle>(
            1, std::min<Cycle>(
                   config_.epoch_cycles / 16,
                   static_cast<Cycle>(std::llround(target_per_epoch))));
        period_cycles =
            std::max<Cycle>(16, config_.epoch_cycles / per_epoch);
        detail_cycles =
            ff_enabled
                ? std::max<Cycle>(1,
                                  period_cycles / sampling::kDetailDivisor)
                : period_cycles;
        detail_cycles_ = ff_enabled ? detail_cycles : 0;
        for (std::uint32_t c = 0; c < n; ++c) {
            win_start_insts[c] = cores_[c]->retired();
            win_start_cycle[c] = cores_[c]->cycle();
            // First detail end strictly ahead of this core's clock
            // (a core may start mid-window; the partial stretch to
            // the next boundary is simulated in detail).
            const Cycle pos = cores_[c]->cycle() - anchor;
            Cycle first_end =
                anchor + (pos / period_cycles) * period_cycles +
                detail_cycles;
            if (first_end <= cores_[c]->cycle()) {
                first_end += period_cycles;
            }
            detail_end[c] = first_end;
        }
    }

    while (done < n) {
        const std::uint32_t c = min_core();

        // The epoch boundary fires when global time (the minimum core
        // clock) crosses it; every other core is already past it.
        if (clock[c] >= next_epoch) {
            llc_->epoch(next_epoch);
            next_epoch += config_.epoch_cycles;
            continue;
        }

        if (batched) {
            const InstCount inst_bound =
                finished[c] ? kNoInstBound : quota_target[c];
            Cycle cycle_bound = std::min(quantum_bound(c), next_epoch);
            if (windows) {
                cycle_bound = std::min(cycle_bound, detail_end[c]);
            }
            step_quantum(c, cycle_bound, inst_bound);
        } else {
            step(c);
        }
        if (windows && cores_[c]->cycle() >= detail_end[c]) {
            const InstCount w_insts =
                cores_[c]->retired() - win_start_insts[c];
            const Cycle w_cycles =
                cores_[c]->cycle() - win_start_cycle[c];
            detail_insts_[c] += w_insts;
            if (!finished[c] && w_insts > 0 && w_cycles > 0) {
                window_ipc_[c].sample(static_cast<double>(w_insts) /
                                      static_cast<double>(w_cycles));
                ++sample_windows_;
            }
            const double ipc_w =
                w_cycles > 0 && w_insts > 0
                    ? static_cast<double>(w_insts) /
                          static_cast<double>(w_cycles)
                    : 1.0;
            if (ff_enabled) {
                // The boundary this core just crossed. When the last
                // core closes it, no further access can be issued
                // before the gap, so the queue backlog pending at the
                // boundary is carried over to the next detail region
                // — without this every window starts against drained
                // queues and measures a transient, biasing IPC high
                // exactly where contention matters most.
                const Cycle boundary = detail_end[c];
                if (boundary != gap_boundary) {
                    gap_boundary = boundary;
                    gap_jumpers = 0;
                }
                if (++gap_jumpers == n && period_cycles > detail_cycles) {
                    const Cycle gap = period_cycles - detail_cycles;
                    dram_.carryBacklog(boundary, gap);
                    llc_->carryBacklog(boundary, gap);
                }
                // Jump the clock to the next detail-region start and
                // extrapolate the skipped instructions at the closed
                // window's IPC. A core short of quota caps the
                // extrapolation so the jump lands exactly on the
                // quota boundary instead of crossing it (the analytic
                // mirror of the quantum's instruction bound).
                const Cycle pos = cores_[c]->cycle() - anchor;
                const Cycle next_start =
                    anchor + (pos / period_cycles + 1) * period_cycles;
                Cycle jump = next_start - cores_[c]->cycle();
                auto ff_n = static_cast<InstCount>(std::llround(
                    static_cast<double>(jump) * ipc_w));
                if (!finished[c] &&
                    quota_target[c] - cores_[c]->retired() < ff_n) {
                    ff_n = quota_target[c] - cores_[c]->retired();
                    jump = std::max<Cycle>(
                        1, static_cast<Cycle>(std::llround(
                               static_cast<double>(ff_n) / ipc_w)));
                }
                cores_[c]->fastForward(ff_n, jump);
                clock[c] = cores_[c]->cycle();
                if (tree) {
                    tree->update(c, clock[c]);
                }
            }
            // Next detail end strictly ahead of the (possibly jumped)
            // clock: the containing window's end, or — when the clock
            // sits in a fast-forward gap (a quota-capped jump) — the
            // next window's; the gap remainder is then simulated in
            // detail, which only adds accuracy.
            const Cycle pos = cores_[c]->cycle() - anchor;
            Cycle next_end =
                anchor + (pos / period_cycles) * period_cycles +
                detail_cycles;
            if (next_end <= cores_[c]->cycle()) {
                next_end += period_cycles;
            }
            detail_end[c] = next_end;
            win_start_insts[c] = cores_[c]->retired();
            win_start_cycle[c] = cores_[c]->cycle();
        }
        if (!finished[c] &&
            cores_[c]->measuredInsts() >= config_.insts_per_app) {
            cores_[c]->markQuotaReached();
            finished[c] = true;
            ++done;
        }
    }

    // Account the final partial detail windows so collect()'s op
    // scale factors cover every simulated instruction, and record the
    // phase totals (quota + post-quota) those factors divide.
    if (windows) {
        phase_insts_.assign(n, 0);
        for (std::uint32_t c = 0; c < n; ++c) {
            detail_insts_[c] += cores_[c]->retired() - win_start_insts[c];
            phase_insts_[c] = cores_[c]->retired() -
                              (quota_target[c] - config_.insts_per_app);
        }
    }

    return collect();
}

RunResult
System::collect()
{
    const std::uint32_t n = config_.num_cores;
    RunResult result;
    Cycle end = 0;
    for (std::uint32_t c = 0; c < n; ++c) {
        end = std::max(end, cores_[c]->cycle());
    }
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
    std::vector<double> op_scale(n, 1.0);
    double op_scale_total = 1.0;
    if (sampling_.windows > 0) {
        std::uint64_t measured_total = 0;
        std::uint64_t detail_total = 0;
        for (std::uint32_t c = 0; c < n; ++c) {
            const std::uint64_t phase = phase_insts_[c];
            if (detail_insts_[c] > 0 && phase > 0) {
                op_scale[c] = static_cast<double>(phase) /
                              static_cast<double>(detail_insts_[c]);
            }
            measured_total += phase;
            detail_total += detail_insts_[c];
        }
        if (detail_total > 0) {
            op_scale_total = static_cast<double>(measured_total) /
                             static_cast<double>(detail_total);
        }
    }
    const double run_scale = set_scale * op_scale_total;
    const auto scaled = [](std::uint64_t v, double f) {
        return f == 1.0 ? v
                        : static_cast<std::uint64_t>(std::llround(
                              static_cast<double>(v) * f));
    };
    const double bias_rel = sampling::biasAllowance(
        sampling_.set_period, sampling_.fast_forward,
        static_cast<double>(config_.llc.geometry.numSets()) /
            static_cast<double>(sampling_.set_period),
        static_cast<double>(detail_cycles_));

    for (std::uint32_t c = 0; c < n; ++c) {
        AppResult app;
        app.name = profiles_[c].name;
        app.ipc = cores_[c]->ipc();
        app.insts = cores_[c]->measuredInsts();
        app.cycles = cores_[c]->measuredCycles();
        const auto &cs = llc_->coreStats(c);
        const double app_scale = set_scale * op_scale[c];
        app.llc_accesses = scaled(cs.accesses.value(), app_scale);
        app.llc_hits = scaled(cs.hits.value(), app_scale);
        app.llc_misses = scaled(cs.misses.value(), app_scale);
        app.mpki = app.insts > 0
                       ? 1000.0 * static_cast<double>(app.llc_misses) /
                             static_cast<double>(app.insts)
                       : 0.0;
        if (sampling_.windows > 0) {
            app.ipc_ci = sampling::kCiZ * window_ipc_[c].stdError() +
                         bias_rel * app.ipc;
        }
        result.apps.push_back(std::move(app));
    }
    result.sample_windows = sample_windows_;

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
