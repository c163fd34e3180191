#include "partition/partitioner.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace coopsim::partition
{

Allocation
equalSharePartition(std::uint32_t num_apps, std::uint32_t total_ways)
{
    COOPSIM_ASSERT(num_apps > 0, "no applications to partition");
    COOPSIM_ASSERT(kMinWaysPerApp * num_apps <= total_ways,
                   "minimum ways exceed the cache associativity");
    // total_ways >= min * num_apps implies total_ways / num_apps >=
    // min, so the even split honours the floor by construction.
    Allocation result;
    result.ways.assign(num_apps, total_ways / num_apps);
    for (std::uint32_t i = 0; i < total_ways % num_apps; ++i) {
        ++result.ways[i];
    }
    return result;
}

Allocation
greedyUtilityPartition(const std::vector<AppDemand> &demands,
                       std::uint32_t total_ways,
                       const LookaheadConfig &config)
{
    const auto n = static_cast<std::uint32_t>(demands.size());
    COOPSIM_ASSERT(n > 0, "no applications to partition");
    COOPSIM_ASSERT(kMinWaysPerApp * n <= total_ways,
                   "minimum ways exceed the cache associativity");
    for (const AppDemand &d : demands) {
        COOPSIM_ASSERT(d.miss_curve.size() >= 2,
                       "miss curve must cover at least one way");
    }

    Allocation result;
    result.ways.assign(n, kMinWaysPerApp);
    std::uint32_t balance = total_ways - kMinWaysPerApp * n;

    std::vector<bool> excluded(n, false);
    double prev_max_mu = 0.0;
    while (balance > 0) {
        double best_mu = 0.0;
        std::uint32_t winner = n;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (excluded[i]) {
                continue;
            }
            const std::vector<double> &curve = demands[i].miss_curve;
            const std::uint32_t alloc = result.ways[i];
            if (alloc + 1 >= curve.size()) {
                excluded[i] = true; // curve exhausted
                continue;
            }
            const double mu = curve[alloc] - curve[alloc + 1];
            if (mu <= 0.0) {
                // The next way saves nothing; as miss curves are
                // monotone, no later way will either.
                excluded[i] = true;
                continue;
            }
            if (mu > best_mu) {
                best_mu = mu;
                winner = i;
            }
        }
        if (winner == n) {
            break; // nobody can benefit any more
        }

        // Same threshold semantics as look-ahead (lookahead.hpp), so
        // the threshold_modes axis stays meaningful under greedy.
        bool grant = false;
        switch (config.mode) {
          case ThresholdMode::MissRatio: {
            const double accesses =
                std::max(1.0, demands[winner].accesses);
            grant = (best_mu / accesses) >= config.threshold;
            break;
          }
          case ThresholdMode::PaperLiteral: {
            grant = std::fabs(prev_max_mu - best_mu) <=
                    prev_max_mu * config.threshold;
            break;
          }
        }
        prev_max_mu = best_mu;

        if (grant) {
            ++result.ways[winner];
            --balance;
        } else if (config.mode == ThresholdMode::MissRatio) {
            // Granting only shrinks the winner's marginal utility, so
            // an app below threshold never recovers this round.
            excluded[winner] = true;
        }
        // PaperLiteral self-unblocks: a failed grant leaves the winner
        // and its mu unchanged, so |prev - mu| = 0 passes next round
        // (the same terminating behaviour as look-ahead's).
    }

    result.unallocated = balance;
    return result;
}

Allocation
decidePartition(Partitioner partitioner,
                const std::vector<AppDemand> &demands,
                std::uint32_t total_ways, const LookaheadConfig &config)
{
    switch (partitioner) {
      case Partitioner::Lookahead:
        return lookaheadPartition(demands, total_ways, config);
      case Partitioner::EqualShare:
        return equalSharePartition(
            static_cast<std::uint32_t>(demands.size()), total_ways);
      case Partitioner::GreedyUtility:
        return greedyUtilityPartition(demands, total_ways, config);
    }
    COOPSIM_PANIC("unknown partitioner");
}

bool
readsDemands(Partitioner partitioner, std::uint32_t num_apps,
             std::uint32_t total_ways)
{
    return partitioner != Partitioner::EqualShare &&
           total_ways > kMinWaysPerApp * num_apps;
}

} // namespace coopsim::partition
