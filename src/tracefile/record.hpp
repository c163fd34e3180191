/**
 * @file
 * `--record=DIR`: captures a spec's workloads as `.cooptrace` sets.
 *
 * A stream is a pure per-(workload, scale, seed) sequence — no scheme
 * or partitioner feedback — so one recording of each group serves the
 * whole spec cross-product. What does vary by scheme/partitioner is
 * how far into the sequence a run consumes (contention decides which
 * core lags and how long the tail runs), so recordSpec first runs the
 * spec's configurations with a counting tee to learn the deepest
 * per-core consumption, then writes that many ops plus margin. Both
 * passes read the stream memo, so each stream is generated once.
 */

#ifndef COOPSIM_TRACEFILE_RECORD_HPP
#define COOPSIM_TRACEFILE_RECORD_HPP

#include <string>

#include "api/spec.hpp"

namespace coopsim::tracefile
{

/**
 * Records every workload group of @p spec into @p dir (created if
 * missing) as `<workload>.<core>.cooptrace` files. Serial — recording
 * is a capture tool, not a sweep. Fatal when the spec sweeps several
 * seeds (a trace pins one), names `trace:` groups (re-recording a
 * replay is a no-op wearing a trench coat), or on any I/O error.
 * Returns the number of trace files written.
 */
std::size_t recordSpec(const api::ExperimentSpec &spec,
                       const std::string &dir);

} // namespace coopsim::tracefile

#endif // COOPSIM_TRACEFILE_RECORD_HPP
