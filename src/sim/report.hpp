/**
 * @file
 * Result reporting: renders RunResults as gem5-style stat dumps.
 */

#ifndef COOPSIM_SIM_REPORT_HPP
#define COOPSIM_SIM_REPORT_HPP

#include <string>

#include "common/stats.hpp"
#include "sim/system.hpp"

namespace coopsim::sim
{

/**
 * Flattens a RunResult into a named stat group
 * ("<name>.<key> <value>" lines via StatGroup::format()).
 */
stats::StatGroup toStatGroup(const RunResult &result,
                             const std::string &name);

/** Renders the full "key value" dump. */
std::string formatRunResult(const RunResult &result,
                            const std::string &name);

} // namespace coopsim::sim

#endif // COOPSIM_SIM_REPORT_HPP
