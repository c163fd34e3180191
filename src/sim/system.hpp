/**
 * @file
 * The top-level simulated system: N cores, a shared partitioned LLC, a
 * banked DRAM, and the interleaved event loop that the paper's
 * methodology implies (Section 3): cores advance in global
 * cycle order; partitioning decisions fire every epoch; statistics are
 * collected from the end of warm-up until each application reaches its
 * instruction quota; applications keep running (and contending) until
 * the last one finishes, exactly as the paper describes.
 */

#ifndef COOPSIM_SIM_SYSTEM_HPP
#define COOPSIM_SIM_SYSTEM_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/trace_core.hpp"
#include "llc/schemes.hpp"
#include "mem/dram.hpp"
#include "sampling/sampling.hpp"
#include "trace/generator.hpp"

namespace coopsim::sampling
{
class WindowSchedule;
}

namespace coopsim::sim
{

/** Scale presets: paper-faithful or a proportionally shrunk run. */
enum class RunScale
{
    /** Fast runs for tests/benches: 8 M instructions per app, 300 k-
     *  cycle epochs, 512 LLC sets (applyScale). */
    Bench,
    /** The paper's scale: 1 B instructions per app, 5 M-cycle epochs;
     *  selectable via --full. Minutes per 2- and 4-core figure: fig05
     *  took 2 min of wall time and fig08 5 min at --threads=4 on a
     *  4-vCPU Xeon, and the exact 8-64-core rows of scaling.spec 54
     *  min at 1.1 GB peak RSS. */
    Paper,
    /** Tiny runs for unit tests. */
    Test,
};

/**
 * How System::run() drives the cores.
 *
 * Batched is the production path: the laggard core runs a bounded
 * quantum (up to the runner-up clock / the next epoch boundary) per
 * arbitration, so the min-clock structure is consulted once per
 * quantum instead of once per op. PerOp is the reference it replaced,
 * one op per arbitration: the same loop with every quantum bounded to
 * one bundle — retained because the two are bit-identical by
 * construction and test_hotpath holds the batched path to that (see
 * docs/ARCHITECTURE.md, "The intra-run hot path").
 */
enum class DriverMode : std::uint8_t
{
    Batched,
    PerOp,
};

/**
 * Builds core @p c's op stream. The profile passed in already carries
 * the scale-adjusted phase lengths, and @p seed is the per-stream seed
 * (run seed + c * 7919) — a factory that may serve a stream built
 * earlier (the stream memo) must check both against what it serves.
 */
using StreamFactory = std::function<std::unique_ptr<core::OpStream>(
    std::uint32_t c, const trace::AppProfile &profile,
    const trace::StreamGeometry &geometry, std::uint64_t seed)>;

/** Complete configuration of one simulation. */
struct SystemConfig
{
    /** Registry name of the LLC management scheme (api::schemeRegistry;
     *  built-ins: "unmanaged", "fairshare", "ucp", "cpe", "coop"). */
    std::string scheme = "coop";
    std::uint32_t num_cores = 2;
    llc::LlcConfig llc;
    mem::DramConfig dram;
    core::CoreConfig core;
    /** Partitioning/monitoring epoch (paper: 5 M cycles). */
    Tick epoch_cycles = 5'000'000;
    /** Instruction quota per application. */
    InstCount insts_per_app = 1'000'000'000;
    /** Cache/branch warm-up before measurement starts. */
    InstCount warmup_insts = 2'000'000;
    std::uint64_t seed = 42;
    /**
     * Event-loop flavour. NOT part of the simulation identity (RunKey
     * carries no driver field): both modes produce bit-identical
     * results, and the property tests in tests/test_hotpath.cpp keep
     * them that way.
     */
    DriverMode driver = DriverMode::Batched;
    /**
     * Where ops come from. Empty (the default) builds the synthetic
     * SPEC-profile generator; the stream memo installs a factory that
     * replays memoized streams. Like `driver`, NOT part of the
     * simulation identity: a replayed stream must reproduce the
     * generated one bit for bit (the stream-memo tests hold it to
     * that), so RunKey carries no stream field.
     */
    StreamFactory stream_factory;
    /**
     * Statistical sampling estimator (src/sampling/). Unlike `driver`
     * this IS part of the simulation identity — sampled results are
     * estimates with a confidence interval, not bit-reproductions of
     * the exact run — so RunKey carries the mode.
     */
    sampling::Mode sampling = sampling::Mode::Exact;
};

/**
 * One row of the topology table: the LLC organisation a core count
 * runs on. The 2- and 4-core rows are the paper's Table 2; the larger
 * rows extrapolate its scaling rule (double capacity and associativity
 * per doubling of cores, +5 cycles of hit latency per step), keeping
 * 1 MB and 4 ways of LLC per core through 16 cores. The 32- and
 * 64-core rows go banked instead: associativity holds at 64 (the
 * CoreMask/WayMask width) and capacity keeps scaling at 1 MB per core
 * by splitting the LLC into slice-hashed banks.
 */
struct Topology
{
    /** Largest core count this row serves (lookups round up). */
    std::uint32_t max_cores;
    std::uint64_t llc_bytes;
    std::uint32_t llc_ways;
    Tick hit_latency;
    /** LLC bank (slice) count; 1 = monolithic. */
    std::uint32_t banks = 1;
};

/** The topology table, ascending in max_cores (2, 4, 8, 16, 32, 64). */
const std::vector<Topology> &topologyTable();

/**
 * Builds the configuration of an @p num_cores-core system: LLC
 * geometry and hit latency come from the topology table row covering
 * @p num_cores (the smallest row with max_cores >= num_cores, so a
 * 3-core system runs on the 4-core organisation). Fatal when the
 * table has no row that large; asserts ways >= cores. @p scheme is a
 * scheme-registry name.
 */
SystemConfig makeSystemConfig(std::uint32_t num_cores,
                              const std::string &scheme, RunScale scale);

/** Per-application results of a run. */
struct AppResult
{
    std::string name;
    double ipc = 0.0;
    InstCount insts = 0;
    Cycle cycles = 0;
    std::uint64_t llc_accesses = 0;
    std::uint64_t llc_hits = 0;
    std::uint64_t llc_misses = 0;
    /** LLC misses per kilo-instruction over the measured window. */
    double mpki = 0.0;
    /** Half-width of the ~95% confidence interval on ipc (0 for an
     *  exact run: the value is not an estimate). */
    double ipc_ci = 0.0;
};

/** Whole-run results. */
struct RunResult
{
    std::vector<AppResult> apps;
    Cycle total_cycles = 0;

    // Energy (LLC), as the paper splits it. dynamic_energy_nj is the
    // scheme-dependent ("tag side") dynamic energy the paper's figures
    // report; data_energy_nj is the scheme-independent data-way term.
    double dynamic_energy_nj = 0.0;
    double data_energy_nj = 0.0;
    double static_energy_nj = 0.0;
    double avg_ways_probed = 0.0;

    // Reconfiguration behaviour (paper Section 5).
    std::uint64_t donor_hits = 0;
    std::uint64_t donor_misses = 0;
    std::uint64_t recipient_hits = 0;
    std::uint64_t recipient_misses = 0;
    double avg_transfer_cycles = 0.0;
    std::uint64_t completed_transfers = 0;
    std::uint64_t flushed_lines = 0;
    std::uint64_t repartitions = 0;
    std::uint64_t epochs = 0;
    /** Flush traffic vs. time since a decision (Fig 16). */
    std::vector<std::uint64_t> flush_series;
    Tick flush_series_bin = 0;

    // DRAM-side totals.
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writebacks = 0;
    std::uint64_t dram_flushes = 0;

    // Bank contention (banked LLC only; zero for monolithic runs).
    std::uint64_t bank_conflicts = 0;
    std::uint64_t bank_conflict_cycles = 0;

    // Statistical sampling (zero for exact runs): total measurement
    // windows the per-app CIs were computed from.
    std::uint64_t sample_windows = 0;
};

/**
 * Host-side accounting of the event loop (not simulated state): how
 * many arbitration quanta the driver dispatched and how many operation
 * bundles they covered. avgQuantumOps() > 1 is the evidence that the
 * batched path actually batched: test_hotpath asserts it, and CI
 * requires it of every workload's traced perfbench ledger
 * (sim.driver.avg_quantum_ops).
 */
struct DriverStats
{
    std::uint64_t quanta = 0;
    std::uint64_t steps = 0;

    double avgQuantumOps() const
    {
        return quanta > 0 ? static_cast<double>(steps) /
                                static_cast<double>(quanta)
                          : 0.0;
    }
};

/**
 * One complete simulated system.
 */
class System
{
  public:
    /**
     * @param config Configuration (num_cores must equal apps.size()).
     * @param apps   One profile per core.
     */
    System(const SystemConfig &config,
           std::vector<trace::AppProfile> apps);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Runs warm-up + measurement to completion and collects results:
     *  warmUp(), then measure(). */
    RunResult run();

    /**
     * Runs every core until each has retired the warm-up quota, then
     * starts the measurement window: core measurement marks set, LLC
     * and DRAM counters zeroed. No epoch fires during warm-up.
     */
    void warmUp();

    /** Runs the measurement phase of a warmed System to completion and
     *  collects its results. */
    RunResult measure();

    /**
     * A copy of this warmed System (after warmUp(), before measure())
     * that measures under @p variant: cores, op streams, LLC and DRAM
     * are copied in their current state. @p variant may differ from
     * config() only in the epoch decision's settings (llc.partitioner,
     * llc.threshold, llc.threshold_mode; asserted). No epoch fires
     * before measure(), so those settings have not yet acted, and the
     * copy's measure() returns what run() under @p variant returns.
     * nullptr when the LLC or an op stream cannot be forked
     * (Llc::fork, OpStream::fork).
     */
    std::unique_ptr<System> fork(const SystemConfig &variant) const;

    /** Event-loop accounting of the last run() (host-side only). */
    const DriverStats &driverStats() const { return driver_stats_; }

    /** The LLC (for inspection in tests and examples). */
    llc::Llc &llc() { return *llc_; }
    const llc::Llc &llc() const { return *llc_; }

    const SystemConfig &config() const { return config_; }

  private:
    /** fork()'s copy of @p warmed's host-side state; fork() adds the
     *  LLC, streams and cores. */
    System(const System &warmed, const SystemConfig &variant);

    RunResult collect(const sampling::WindowSchedule &windows);
    /** The latest core clock: where warm-up ends, and the run. */
    Cycle latestClock() const;

    SystemConfig config_;
    std::vector<trace::AppProfile> profiles_;
    mem::DramModel dram_;
    std::unique_ptr<llc::Llc> llc_;
    std::vector<std::unique_ptr<core::OpStream>> streams_;
    std::vector<std::unique_ptr<core::TraceCore>> cores_;
    DriverStats driver_stats_;
    /** The resolved estimator configuration (src/sampling/). */
    sampling::Resolved sampling_;
};

} // namespace coopsim::sim

#endif // COOPSIM_SIM_SYSTEM_HPP
