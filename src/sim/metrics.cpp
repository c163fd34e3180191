#include "sim/metrics.hpp"

#include "common/logging.hpp"

namespace coopsim::sim
{

double
weightedSpeedup(const RunResult &shared,
                const std::vector<double> &alone_ipcs)
{
    COOPSIM_ASSERT(shared.apps.size() == alone_ipcs.size(),
                   "weightedSpeedup size mismatch");
    double total = 0.0;
    for (std::size_t i = 0; i < alone_ipcs.size(); ++i) {
        COOPSIM_ASSERT(alone_ipcs[i] > 0.0, "non-positive alone IPC");
        total += shared.apps[i].ipc / alone_ipcs[i];
    }
    return total;
}

double
normalizeTo(double value, double baseline)
{
    COOPSIM_ASSERT(baseline > 0.0, "normalising to a zero baseline");
    return value / baseline;
}

} // namespace coopsim::sim
