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
    kFlagStore = 1u << 7,      //!< --store=DIR (result-store directory)
    kFlagShard = 1u << 8,      //!< --shard=I/N (slice of the sweep)
    kFlagPositional = 1u << 9, //!< bare (non --) arguments
    kFlagSampling = 1u << 10,  //!< --sampling=exact|set|op|setop
    kFlagCi = 1u << 11,        //!< --ci (print value±ci table cells)
    /** --no-stream-memo, --stream-cache-mb=N (the process-wide
     *  op-stream memo, sim::StreamCache). */
    kFlagStreamMemo = 1u << 12,
};

/** The examples: scale, threads and a positional group name. */
inline constexpr unsigned kExampleFlags =
    kFlagScale | kFlagThreads | kFlagPositional;
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
    /** Result-store directory (--store=DIR); empty = no store. */
    std::string store_dir;
    /** --shard=I/N slice of the expanded RunKey list. */
    unsigned shard_index = 0;
    unsigned shard_count = 1;
    bool shard_set = false;
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
 * the two is fatal.
 */
void applyCliStreamMemo(const CliOptions &options);

/** Prints the standard "# scale: ..." / "# threads: ..." preamble
 *  coopsim_cli emits before its tables. */
void printPreamble(const CliOptions &options, unsigned threads);

/**
 * Opens the result store for a --store=DIR run: loads every
 * `*.coopstore` file in the directory (last file wins per key),
 * journals every later result into DIR, attaches the store to the
 * process-wide executor, and registers an at-exit
 * finishStoreSession() of the merged store to `DIR/results.coopstore`
 * plus a run-count report (printRunStats) on stderr. Returns nullptr
 * — and does nothing — when the options carry no --store directory.
 */
std::shared_ptr<store::ResultStore>
attachCliStore(const CliOptions &options);

/**
 * Ends a --store session: saves @p results to @p path and, only once
 * that save succeeded, deletes @p session's own journal and, with
 * @p drop_loaded, the journals @p session loaded, whose entries the
 * save now holds. A result @p session records after the save took its
 * snapshot keeps every journal on disk for the next load. The
 * unsharded exit save and `--shard` both end here. Returns the number
 * of results saved; nothing, with the failure in @p error, deletes
 * nothing.
 */
std::optional<std::size_t>
finishStoreSession(const store::ResultStore &results,
                   const std::string &path, store::ResultStore &session,
                   bool drop_loaded, std::string &error);

/** Prints the executor's run-count stat line
 *  ("# runs: simulations=N store_hits=M") to stderr, keeping stdout
 *  bit-identical between store-backed and fresh runs. */
void printRunStats();

} // namespace coopsim::api

#endif // COOPSIM_API_CLI_HPP
