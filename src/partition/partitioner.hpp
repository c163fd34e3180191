/**
 * @file
 * The partitioner registry's algorithm catalogue: every way-allocation
 * policy a scheme can run at its epoch boundary, behind one dispatch
 * point. The paper evaluates only the (thresholded) UCP look-ahead
 * allocator; the extra algorithms make the partitioning decision an
 * experiment axis (`partitioner=` in specs and RunKeys) instead of a
 * hard-wired call:
 *
 *  - Lookahead:     Algorithm 1 — the thresholded look-ahead allocator
 *                   in lookahead.hpp. The paper's policy and the
 *                   default everywhere.
 *  - EqualShare:    ways / n per application, remainder to the lowest
 *                   core indices — the allocation FairShare hard-codes,
 *                   now available to the dynamic schemes as a
 *                   demand-blind control.
 *  - GreedyUtility: the classic greedy hill-climb (Qureshi & Patt's
 *                   baseline to look-ahead): grant one way at a time to
 *                   the application with the highest next-way marginal
 *                   utility. Cheaper than look-ahead but blind to
 *                   multi-way knees in the miss curves.
 *
 * All three are deterministic, pure functions of their inputs (the
 * executor's determinism invariant extends through them), and all
 * grant every application kMinWaysPerApp ways. The thresholded
 * algorithms leave unprofitable ways unallocated, so gating-capable
 * schemes can power them off.
 */

#ifndef COOPSIM_PARTITION_PARTITIONER_HPP
#define COOPSIM_PARTITION_PARTITIONER_HPP

#include <cstdint>

#include "partition/lookahead.hpp"

namespace coopsim::partition
{

/** Which way-allocation algorithm an epoch decision runs. */
enum class Partitioner : std::uint8_t
{
    /** Thresholded UCP look-ahead (Algorithm 1); the paper's policy. */
    Lookahead,
    /** Static equal split; remainder to the lowest core indices. */
    EqualShare,
    /** One-way-at-a-time greedy hill-climb over marginal utility. */
    GreedyUtility,
};

/**
 * The equal split: total_ways / num_apps each, the remainder granted
 * one way apiece to the lowest application indices (the same counts as
 * FairShareLlc's round-robin way masks). Ignores the demands entirely;
 * never leaves a way unallocated. Asserts kMinWaysPerApp * num_apps
 * <= total_ways (like the other algorithms); the even split then
 * automatically clears the floor.
 */
Allocation equalSharePartition(std::uint32_t num_apps,
                               std::uint32_t total_ways);

/**
 * Greedy hill-climb: repeatedly grants ONE way to the application with
 * the highest marginal utility for its next way, until the balance is
 * exhausted or nobody passes the threshold test. The test follows
 * config.mode with the same semantics as lookahead.hpp (MissRatio:
 * miss-ratio reduction per way >= T; PaperLiteral: the printed
 * pseudocode's |prev - mu| <= prev * T). Applications whose next way
 * saves no misses, or fails the MissRatio test, are excluded from
 * further competition; leftover ways are reported unallocated for
 * power gating.
 */
Allocation greedyUtilityPartition(const std::vector<AppDemand> &demands,
                                  std::uint32_t total_ways,
                                  const LookaheadConfig &config);

/**
 * Runs the decision algorithm @p partitioner selects. This is the one
 * call every scheme's epoch() makes; Partitioner::Lookahead reproduces
 * lookaheadPartition() exactly.
 */
Allocation decidePartition(Partitioner partitioner,
                           const std::vector<AppDemand> &demands,
                           std::uint32_t total_ways,
                           const LookaheadConfig &config);

/**
 * False when decidePartition(@p partitioner, demands, @p total_ways,
 * config) over @p num_apps applications returns the same allocation
 * whatever the demands' curves and access counts: under EqualShare,
 * which reads only their number, and under every algorithm when the
 * floor of kMinWaysPerApp ways each takes every way. The one place
 * that knows which decisions read demands; a scheme builds and updates
 * its utility monitors only where this is true.
 */
bool readsDemands(Partitioner partitioner, std::uint32_t num_apps,
                  std::uint32_t total_ways);

} // namespace coopsim::partition

#endif // COOPSIM_PARTITION_PARTITIONER_HPP
