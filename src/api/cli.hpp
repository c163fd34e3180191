/**
 * @file
 * The one command-line parser every coopsim binary shares.
 *
 * Each binary states which flags it accepts (a bitmask); the parser
 * validates values and rejects any `--` argument it does not know or
 * the binary did not opt into — a typo like `--thread=4` is a fatal
 * error, not a silently ignored no-op.
 */

#ifndef COOPSIM_API_CLI_HPP
#define COOPSIM_API_CLI_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/system.hpp"

namespace coopsim::store
{
class ResultStore;
}

namespace coopsim::api
{

/** Flags a binary can opt into (bitmask for parseCli). */
enum CliFlag : unsigned
{
    kFlagScale = 1u << 0,      //!< --scale=test|bench|paper, --full
    kFlagThreads = 1u << 1,    //!< --threads=N
    kFlagSpec = 1u << 2,       //!< --spec=FILE
    kFlagScheme = 1u << 3,     //!< --scheme=NAME
    kFlagGroup = 1u << 4,      //!< --group=G2-3
    kFlagThreshold = 1u << 5,  //!< --threshold=T
    kFlagSeed = 1u << 6,       //!< --seed=N
    kFlagCsv = 1u << 7,        //!< --csv
    kFlagStore = 1u << 8,      //!< --store=DIR (result-store directory)
    kFlagShard = 1u << 9,      //!< --shard=I/N (slice of the sweep)
    kFlagMerge = 1u << 10,     //!< --merge (fold shard stores, render)
    kFlagPositional = 1u << 11, //!< bare (non --) arguments
    /** --supervise, --shards=N, --shard-timeout=S, --shard-retries=K
     *  (the fault-tolerant shard supervisor). */
    kFlagSupervise = 1u << 12,
    kFlagRecord = 1u << 13,    //!< --record=DIR (capture trace files)
    kFlagTraceDir = 1u << 14,  //!< --trace-dir=DIR (trace: workloads)
    kFlagSampling = 1u << 15,  //!< --sampling=exact|set|op|setop
    kFlagCi = 1u << 16,        //!< --ci (print value±ci table cells)
    /** --no-stream-memo, --stream-cache-mb=N (the process-wide
     *  op-stream memo, sim::StreamCache). */
    kFlagStreamMemo = 1u << 17,
};

/** The table benches: scale + threads + result store + memo. */
inline constexpr unsigned kBenchFlags =
    kFlagScale | kFlagThreads | kFlagStore | kFlagStreamMemo;
/** Examples taking a positional group name. */
inline constexpr unsigned kExampleFlags =
    kBenchFlags | kFlagPositional;
/** Everything (coopsim_cli); derived from the last enumerator so a
 *  new flag is included automatically. */
inline constexpr unsigned kAllFlags = (kFlagStreamMemo << 1) - 1;

/** Parsed command line. */
struct CliOptions
{
    sim::RunScale scale = sim::RunScale::Bench;
    /** Scale-registry name of @ref scale (spec-file plumbing). */
    std::string scale_name = "bench";
    /** True when --scale/--full appeared (so `--spec` runs know
     *  whether to override the spec file's own scale). */
    bool scale_set = false;
    /** Requested worker count; 0 = default resolution. */
    unsigned threads = 0;
    std::string spec_path;
    std::string scheme = "coop";
    std::string group = "G2-3";
    std::optional<double> threshold;
    std::optional<std::uint64_t> seed;
    bool csv = false;
    /** Result-store directory (--store=DIR); empty = no store. */
    std::string store_dir;
    /** --shard=I/N slice of the expanded RunKey list. */
    unsigned shard_index = 0;
    unsigned shard_count = 1;
    bool shard_set = false;
    /** --merge: fold the shard stores in store_dir into one and
     *  render the table from it. */
    bool merge = false;
    /** --supervise: fork one worker per shard, retry failures, merge. */
    bool supervise = false;
    /** --shards=N: shard count the supervisor splits the sweep into. */
    unsigned shards = 0;
    /** --shard-timeout=S: per-attempt wall-clock budget in seconds
     *  (0 disables the timeout). */
    double shard_timeout_s = 900.0;
    /** --shard-retries=K: attempts per shard before it is reported
     *  failed. */
    unsigned shard_retries = 3;
    /** --record=DIR: record the spec's workloads as `.cooptrace`
     *  files into DIR instead of rendering a table; empty = off. */
    std::string record_dir;
    /** --trace-dir=DIR: register DIR's trace sets as `trace:<name>`
     *  workloads before the spec resolves; empty = none. */
    std::string trace_dir;
    /** --sampling=NAME: sampling-mode registry name that overrides
     *  the spec file's sampling axis. */
    std::string sampling_name = "exact";
    /** True when --sampling appeared. */
    bool sampling_set = false;
    /** --ci: render normalised table cells as value±ci. */
    bool show_ci = false;
    /** --no-stream-memo: regenerate every run's streams (escape
     *  hatch; memoized and regenerated runs are bit-identical). */
    bool no_stream_memo = false;
    /** --stream-cache-mb=N: memo budget in MiB; 0 = topology default
     *  (StreamCache::defaultBudgetBytes). */
    unsigned stream_cache_mb = 0;
    std::vector<std::string> positional;
};

/**
 * Parses @p argv against the @p allowed flag mask.
 *
 * `--help` prints @p usage and exits 0. Any other `--` argument that
 * is not an allowed flag — unknown, misspelled, or simply not opted
 * into by this binary — is fatal; so is a malformed value of an
 * allowed flag.
 */
CliOptions parseCli(int argc, char **argv, unsigned allowed,
                    const char *usage);

/**
 * Applies the parsed thread request to the process-wide executor and
 * returns its final worker count.
 */
unsigned applyCliThreads(const CliOptions &options);

/**
 * Applies the parsed stream-memo request (--no-stream-memo,
 * --stream-cache-mb) to the process-wide sim::StreamCache. Combining
 * the two is fatal. benchSetup() calls this.
 */
void applyCliStreamMemo(const CliOptions &options);

/** Prints the standard "# scale: ..." / "# threads: ..." preamble the
 *  benches emit before their tables. */
void printPreamble(const CliOptions &options, unsigned threads);

/**
 * Opens the result store for a --store=DIR run: loads every
 * `*.coopstore` file in the directory (last file wins per key),
 * attaches the store to the process-wide executor, and registers an
 * at-exit save of the merged store to `DIR/results.coopstore` plus a
 * run-count report (printRunStats) on stderr. Returns nullptr — and
 * does nothing — when the options carry no --store directory.
 * benchSetup() calls this, so every bench is store-aware.
 */
std::shared_ptr<store::ResultStore>
attachCliStore(const CliOptions &options);

/** Prints the executor's run-count stat line
 *  ("# runs: simulations=N store_hits=M") to stderr, keeping stdout
 *  bit-identical between store-backed and fresh runs. */
void printRunStats();

/** Prints the store's load-health counters (skipped/legacy lines,
 *  quarantined files) to stderr — only when any are non-zero, so a
 *  clean run's stderr is unchanged. */
void printStoreHealth(const store::ResultStore &result_store);

/** parseCli + applyCliThreads + printPreamble + attachCliStore: the
 *  lines every bench main() opens with. */
CliOptions benchSetup(int argc, char **argv,
                      unsigned allowed = kBenchFlags);

} // namespace coopsim::api

#endif // COOPSIM_API_CLI_HPP
