/**
 * @file
 * Way-allocation algorithms: the UCP look-ahead allocator and the
 * paper's modified, thresholded variant (Algorithm 1).
 *
 * The allocator consumes one miss curve per competing application
 * (misses expected for each possible way allocation, from the utility
 * monitors in src/umon) and produces a way count per application.
 *
 * Threshold semantics
 * -------------------
 * The paper's pseudocode for Algorithm 1 is internally inconsistent:
 * taken literally (`|prev_max_mu - max_mu| < prev_max_mu * T`), a
 * threshold of 0 would never allocate any way, while the text states
 * that T = 0 "corresponds to an allocation of ways in the same manner
 * as UCP" and that T = 1 "would mean that no ways were ever allocated".
 * We therefore implement the semantics the text describes:
 *
 *   the winning application is granted its requested ways only when its
 *   marginal utility — the miss-*ratio* reduction per additional way —
 *   is at least T.
 *
 * With T = 0 every round allocates (exactly UCP look-ahead); with T = 1
 * a single way would have to remove 100% of an application's misses, so
 * nothing is ever allocated; T = 0.05 (the paper's default) requires a
 * 5% miss-ratio reduction per way. Applications that fail the test are
 * excluded from further competition; ways left over when no application
 * qualifies remain unallocated and can be power-gated.
 *
 * ThresholdMode::PaperLiteral implements the printed pseudocode
 * (with `<=` and a no-progress exclusion safeguard) for the ablation
 * `specs/ablation_threshold_mode.spec`.
 */

#ifndef COOPSIM_PARTITION_LOOKAHEAD_HPP
#define COOPSIM_PARTITION_LOOKAHEAD_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace coopsim::partition
{

/** Interpretation of the threshold test (see file comment). */
enum class ThresholdMode : std::uint8_t
{
    /** Marginal miss-ratio gain per way must be >= T (default). */
    MissRatio,
    /** The pseudocode as printed in the paper, made terminating. */
    PaperLiteral,
};

/** One competing application's demand on the cache. */
struct AppDemand
{
    /**
     * miss_curve[w] = expected misses when owning w ways;
     * size = ways + 1, monotone non-increasing.
     */
    std::vector<double> miss_curve;
    /** Total accesses over the same window (normalises the threshold). */
    double accesses = 0.0;
};

/**
 * Ways granted to every application before competition starts: the
 * paper's schemes keep every core runnable, so each core always has a
 * way to probe and fill.
 */
inline constexpr std::uint32_t kMinWaysPerApp = 1;

/** Configuration of the allocator. */
struct LookaheadConfig
{
    /** Turn-off threshold T (Algorithm 1); 0 = plain UCP. */
    double threshold = 0.0;
    /** Threshold interpretation. */
    ThresholdMode mode = ThresholdMode::MissRatio;
};

/** Result of a partitioning decision. */
struct Allocation
{
    /** Ways granted per application. */
    std::vector<std::uint32_t> ways;
    /** Ways granted to nobody (candidates for power gating). */
    std::uint32_t unallocated = 0;
};

/**
 * Runs the (optionally thresholded) look-ahead allocation.
 *
 * @param demands    One entry per competing application.
 * @param total_ways Ways available in the shared cache.
 * @param config     Threshold settings.
 */
Allocation lookaheadPartition(const std::vector<AppDemand> &demands,
                              std::uint32_t total_ways,
                              const LookaheadConfig &config);

/**
 * Max marginal utility ("get_max_mu" in Algorithm 1): the best average
 * miss reduction per way over any extension of @p alloc by 1..balance
 * ways.
 *
 * @param curve   Miss curve of the application.
 * @param alloc   Ways currently granted.
 * @param balance Ways still unassigned.
 * @param blocks_req Out: the smallest extension achieving the maximum.
 * @return the maximum marginal utility (misses saved per way).
 */
double maxMarginalUtility(const std::vector<double> &curve,
                          std::uint32_t alloc, std::uint32_t balance,
                          std::uint32_t &blocks_req);

} // namespace coopsim::partition

#endif // COOPSIM_PARTITION_LOOKAHEAD_HPP
