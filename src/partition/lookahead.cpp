#include "partition/lookahead.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace coopsim::partition
{

double
maxMarginalUtility(const std::vector<double> &curve, std::uint32_t alloc,
                   std::uint32_t balance, std::uint32_t &blocks_req)
{
    COOPSIM_ASSERT(!curve.empty(), "empty miss curve");
    const auto max_ways = static_cast<std::uint32_t>(curve.size() - 1);
    COOPSIM_ASSERT(alloc <= max_ways, "allocation beyond curve");

    double max_mu = 0.0;
    blocks_req = 0;
    const std::uint32_t limit =
        std::min(balance, max_ways - alloc);
    for (std::uint32_t j = 1; j <= limit; ++j) {
        const double mu =
            (curve[alloc] - curve[alloc + j]) / static_cast<double>(j);
        if (mu > max_mu) {
            max_mu = mu;
            blocks_req = j;
        }
    }
    return max_mu;
}

Allocation
lookaheadPartition(const std::vector<AppDemand> &demands,
                   std::uint32_t total_ways, const LookaheadConfig &config)
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
        std::uint32_t winner_req = 0;

        for (std::uint32_t i = 0; i < n; ++i) {
            if (excluded[i]) {
                continue;
            }
            std::uint32_t req = 0;
            const double mu = maxMarginalUtility(demands[i].miss_curve,
                                                 result.ways[i], balance,
                                                 req);
            if (req == 0) {
                // No extension helps this application at all.
                excluded[i] = true;
                continue;
            }
            if (mu > best_mu) {
                best_mu = mu;
                winner = i;
                winner_req = req;
            }
        }

        if (winner == n) {
            break; // nobody can benefit any more
        }

        bool grant = false;
        switch (config.mode) {
          case ThresholdMode::MissRatio: {
            // Benefit per way, as a fraction of the winner's accesses,
            // must meet the threshold.
            const double accesses = std::max(1.0, demands[winner].accesses);
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
            result.ways[winner] += winner_req;
            balance -= winner_req;
        } else if (config.mode == ThresholdMode::MissRatio) {
            // The candidate cannot justify more ways now; as allocations
            // only shrink its marginal utility, drop it for this round.
            excluded[winner] = true;
        }
        // PaperLiteral: a failed grant only updates prev_max_mu; the
        // next iteration re-evaluates the same winner with an unchanged
        // mu, so |prev - mu| = 0 and the test passes — the printed
        // pseudocode self-unblocks after one lagging iteration.
    }

    result.unallocated = balance;
    return result;
}

} // namespace coopsim::partition
