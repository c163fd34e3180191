/**
 * @file
 * Evaluation metrics (paper Section 3.3) and normalisation helpers.
 */

#ifndef COOPSIM_SIM_METRICS_HPP
#define COOPSIM_SIM_METRICS_HPP

#include <vector>

#include "sim/system.hpp"

namespace coopsim::sim
{

/**
 * Weighted speedup: sum over applications of IPC_shared / IPC_alone
 * (Equation 1 of the paper).
 *
 * @param shared Result of the co-scheduled run.
 * @param alone_ipcs IPC of each application running in isolation, in
 *        the same order as shared.apps.
 */
double weightedSpeedup(const RunResult &shared,
                       const std::vector<double> &alone_ipcs);

/** value / baseline, guarding against a zero baseline. */
double normalizeTo(double value, double baseline);

} // namespace coopsim::sim

#endif // COOPSIM_SIM_METRICS_HPP
