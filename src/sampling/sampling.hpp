/**
 * @file
 * Statistical sampling estimators for the simulation itself.
 *
 * Two composable estimators trade exactness for wall-clock, with the
 * error carried as a per-metric confidence interval instead of being
 * silently absorbed:
 *
 *  - **Set sampling** (`set`): only addresses mapping to a 1/S subset
 *    of LLC sets are simulated in the shared cache — the same
 *    selection rule the paper's UMON ATD uses (`set % S == 0`).
 *    Accesses to unsampled sets never reach the cache model: they are
 *    replayed into DRAM at the miss and writeback rates the sampled
 *    sets measure (set_sampled.hpp explains why an average latency
 *    fails); counters are scaled back up by S at collection. Because
 *    the modelled array is 1/S the capacity, the cache also warms S×
 *    faster, so warmup shrinks by S (the same argument `applyScale`
 *    already uses when it miniaturises the set count per scale).
 *
 *  - **Op sampling** (`op`): SMARTS-style alternation of short detail
 *    windows (simulated exactly) and fast-forward gaps (an analytic
 *    clock jump at the last window's CPI, no ops generated, no LLC
 *    traffic), laid out by window_schedule.hpp. Per-window IPC
 *    samples feed a Welford accumulator; the reported CI is z * stderr
 *    plus a fixed relative allowance for the estimator's systematic
 *    bias (contention missed during another core's fast-forward gap).
 *
 * `setop` composes both. `exact` (the default everywhere) bypasses
 * all of this and is byte-identical to the pre-sampling simulator —
 * it plays the same reference role DriverMode::PerOp plays for the
 * batched driver. The mode is part of RunKey identity, but is emitted
 * only when non-default so exact key and store lines stay byte-stable.
 */

#ifndef COOPSIM_SAMPLING_SAMPLING_HPP
#define COOPSIM_SAMPLING_SAMPLING_HPP

#include <cmath>
#include <cstdint>

namespace coopsim::sampling
{

/** Which estimator(s) a run uses. Exact is the reference. */
enum class Mode : std::uint8_t
{
    Exact,
    Set,
    Op,
    SetOp,
};

constexpr bool
setSampled(Mode mode)
{
    return mode == Mode::Set || mode == Mode::SetOp;
}

constexpr bool
opSampled(Mode mode)
{
    return mode == Mode::Op || mode == Mode::SetOp;
}

/** 1-in-S set selection of the set-sampled modes, 1/4 of sets:
 *  denser than UMON's 1/32 because the main simulation, unlike the
 *  ATD, feeds partitioning decisions. */
inline constexpr std::uint32_t kDefaultSetPeriod = 4;
/** Measurement windows per app of every sampled mode; with
 *  kDetailDivisor this simulates 1/16 of the measured instructions in
 *  32 detail windows. */
inline constexpr std::uint32_t kDefaultOpWindows = 32;
/** Detail fraction of each window period (1/16, SMARTS-like). */
inline constexpr std::uint64_t kDetailDivisor = 16;

/** z for the ~95% confidence level the CIs report. */
inline constexpr double kCiZ = 1.96;
/**
 * Relative bias allowances added to the statistical CI: systematic
 * error the window variance cannot see. Both scale with how starved
 * the estimator is:
 *
 *  - Set sampling's error is partitioning noise from deciding with
 *    1/S of the sets; it grows as the sampled array shrinks, so the
 *    allowance scales with sqrt(kSetRefSets / sampled_sets).
 *  - Op sampling's error is contention transient and in-flight stall
 *    debt at window boundaries; it grows as detail windows shrink
 *    toward the memory latency, so the allowance scales with
 *    sqrt(kOpRefDetailCycles / detail_cycles).
 *
 * The base constants are calibrated so every cell of the differential
 * suite in tests/test_sampling.cpp stays inside its reported CI with
 * margin.
 */
inline constexpr double kSetBiasRel = 0.06;
inline constexpr double kSetRefSets = 1024.0;
inline constexpr double kOpBiasRel = 0.12;
inline constexpr double kOpRefDetailCycles = 16384.0;

/**
 * Relative systematic allowance for a run's estimator configuration.
 *
 * @param set_period    1 = set sampling off.
 * @param fast_forward  True when op sampling skipped instructions.
 * @param sampled_sets  Sets the inner array actually modelled.
 * @param detail_cycles Length of one detail window in cycles.
 */
inline double
biasAllowance(std::uint32_t set_period, bool fast_forward,
              double sampled_sets, double detail_cycles)
{
    double rel = 0.0;
    if (set_period > 1 && sampled_sets > 0.0) {
        rel += kSetBiasRel * std::sqrt(kSetRefSets / sampled_sets);
    }
    if (fast_forward && detail_cycles > 0.0) {
        rel += kOpBiasRel * std::sqrt(kOpRefDetailCycles / detail_cycles);
    }
    return rel;
}

/** What a mode asks System to do. */
struct Resolved
{
    /** 1 = set sampling off. */
    std::uint32_t set_period = 1;
    /** 0 = no measurement windows (exact). */
    std::uint32_t windows = 0;
    /** Whether windows alternate with fast-forward gaps. */
    bool fast_forward = false;
};

inline Resolved
resolve(Mode mode)
{
    Resolved r;
    if (setSampled(mode)) {
        r.set_period = kDefaultSetPeriod;
    }
    if (mode != Mode::Exact) {
        r.windows = kDefaultOpWindows;
    }
    r.fast_forward = opSampled(mode);
    return r;
}

} // namespace coopsim::sampling

#endif // COOPSIM_SAMPLING_SAMPLING_HPP
