/**
 * @file
 * Trace-backed workloads: makes a directory of `.cooptrace` files a
 * first-class workload source.
 *
 * registerTraceDir() scans a directory for complete
 * `<workload>.<core>.cooptrace` sets and registers each as the
 * workload group `trace:<workload>` in api::workloadRegistry(), so
 * specs, RunKeys and sharded/supervised sweeps address replays with
 * ordinary workload names (`groups=trace:G2-3`). Incomplete or
 * corrupt sets warn and are skipped — like the result store's loadDir
 * — so one bad file cannot take down a sweep over the good ones.
 *
 * replayFactory() is the sim::StreamFactory the executor installs for
 * such groups: each core replays its file through the stream memo
 * (sim::StreamCache::openTraceFile), after the recorded identity
 * (core, seed, geometry, scale, app) is checked against what the
 * simulation is about to assume. A mismatch is a descriptive fatal —
 * replaying a trace under the wrong seed or geometry would silently
 * produce plausible-looking wrong numbers.
 */

#ifndef COOPSIM_TRACEFILE_TRACE_WORKLOADS_HPP
#define COOPSIM_TRACEFILE_TRACE_WORKLOADS_HPP

#include <cstdint>
#include <string>

#include "sim/system.hpp"
#include "tracefile/trace_format.hpp"

namespace coopsim::tracefile
{

/** Workload names with this prefix resolve to recorded traces. */
inline constexpr const char *kTracePrefix = "trace:";

/** True when @p name is a `trace:<workload>` name. */
bool isTraceWorkload(const std::string &name);

/** `<workload>.<core>.cooptrace` (no directory). */
std::string traceFileName(const std::string &workload, std::uint32_t core);

/**
 * Scans @p dir and registers every complete trace set as
 * `trace:<workload>`. Returns how many workloads were registered.
 * Scanning the same directory again is a no-op; a malformed set
 * (missing core files, mismatched or corrupt headers) warns and is
 * skipped. Fatal only when @p dir itself cannot be read.
 */
std::size_t registerTraceDir(const std::string &dir);

/** registerTraceDir(COOPSIM_TRACE_DIR) if the variable is set (once;
 *  later calls are no-ops). Hooked into api::warmAllRegistries() so
 *  executor threads and supervised shard workers see trace workloads
 *  without any CLI plumbing. */
void registerFromEnvironment();

/** Path of the file backing core @p core of the registered trace
 *  workload @p name ("trace:..."). Fatal when @p name is unknown. */
const std::string &traceFilePath(const std::string &name,
                                 std::uint32_t core);

/** Header recorded for core @p core of @p name (fatal if unknown). */
const TraceHeader &traceHeaderOf(const std::string &name,
                                 std::uint32_t core);

/**
 * The stream factory replaying the registered workload @p name
 * ("trace:...") for a run with @p run_seed at @p scale. Each core's
 * stream validates the recorded identity before serving ops.
 */
sim::StreamFactory replayFactory(const std::string &name,
                                 std::uint64_t run_seed,
                                 sim::RunScale scale);

} // namespace coopsim::tracefile

#endif // COOPSIM_TRACEFILE_TRACE_WORKLOADS_HPP
