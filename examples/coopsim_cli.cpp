/**
 * @file
 * Command-line driver over the experiment API.
 *
 * Modes:
 *
 *  - `--spec=FILE` runs a full declarative experiment from a spec
 *    file and renders its table; `--scale=`/`--threads=`/`--seed=`
 *    override the file. specs/ defines each of the paper's figures:
 *        coopsim_cli --spec=specs/fig05.spec --scale=test
 *  - `--spec=FILE --store=DIR` additionally serves every run already
 *    in DIR's result store from disk (zero simulations when warm —
 *    see the stderr run-count stat) and persists new results to
 *    DIR/results.coopstore on exit.
 *  - `--spec=FILE --shard=I/N --store=DIR` runs only the i-th
 *    round-robin slice of the expanded RunKey list and saves it to
 *    DIR/shard-IofN.coopstore; no table is rendered. Run all N
 *    shards (on as many hosts as you like), collect the shard files
 *    into one directory, then:
 *  - `--spec=FILE --merge --store=DIR` folds every store file in DIR
 *    into DIR/results.coopstore and renders the table — bit-identical
 *    to the unsharded run.
 *  - `--spec=FILE --supervise --shards=N --store=DIR` runs the whole
 *    sharded flow under the fault-tolerant supervisor: one forked
 *    worker per shard (this same binary with `--shard=I/N`), per-shard
 *    wall-clock timeouts (`--shard-timeout=S`), capped-exponential
 *    retry of crashed/hung/invalid shards (`--shard-retries=K`), then
 *    the merge. When every shard succeeds, stdout is bit-identical to
 *    the unsharded run and the supervision report goes to stderr;
 *    when retries are exhausted the merge degrades to a missing-keys
 *    summary and a non-zero exit. Worker output is appended to
 *    DIR/shard-IofN.log. `COOPSIM_FAULT=<kind>:<shard>:<attempt>`
 *    (src/supervise/fault.hpp) injects deterministic worker faults
 *    for testing.
 *  - otherwise, one (scheme x group) cell with configurable
 *    threshold/seed/scale, printed as a full stat dump or a CSV row.
 *
 * Schemes/groups/scales are registry names: `unmanaged fairshare ucp
 * cpe coop`, `G2-1`..`G4-14`, `test bench paper`.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include <coopsim/experiment.hpp>

#include "api/parse_util.hpp"
#include "common/logging.hpp"
#include "sim/executor.hpp"
#include "sim/report.hpp"
#include "supervise/fault.hpp"
#include "supervise/supervisor.hpp"
#include "tracefile/record.hpp"
#include "tracefile/trace_workloads.hpp"

using namespace coopsim;

namespace
{

constexpr const char *kUsage =
    "usage: coopsim_cli [--spec=FILE] [--scheme=coop] [--group=G2-3]\n"
    "                   [--threshold=0.05] [--seed=N] [--csv]\n"
    "                   [--scale=test|bench|paper] [--full] "
    "[--threads=N]\n"
    "                   [--store=DIR] [--shard=I/N] [--merge]\n"
    "                   [--supervise --shards=N [--shard-timeout=S]\n"
    "                    [--shard-retries=K]]\n"
    "                   [--record=DIR] [--trace-dir=DIR]\n"
    "                   [--sampling=exact|set|op|setop] [--ci]\n"
    "                   [--no-stream-memo] [--stream-cache-mb=N]\n"
    "                   [--trace-cache=DIR]\n"
    "with --spec, only --scale/--threads/--seed/--store/--shard/"
    "--merge/\n--supervise/--shards/--shard-timeout/--shard-retries/"
    "--record/\n--trace-dir/--sampling/--ci/--no-stream-memo/"
    "--stream-cache-mb/\n--trace-cache may also be given (the "
    "first three and\n--sampling override the spec file).\n"
    "--shard, --merge and --supervise require --spec and --store.\n"
    "--record=DIR captures the spec's workloads as .cooptrace files\n"
    "into DIR instead of running the experiment; --trace-dir=DIR (or\n"
    "COOPSIM_TRACE_DIR) registers DIR's recordings as trace:<name>\n"
    "workloads for replay.\n"
    "Sweeps memoize op streams process-wide (generate once, replay\n"
    "everywhere); --no-stream-memo regenerates per run,\n"
    "--stream-cache-mb=N bounds the memo, --trace-cache=DIR persists\n"
    "it across processes (e.g. supervised shard workers).\n";

/** 1-based attempt number of this worker process (COOPSIM_ATTEMPT,
 *  exported by the supervisor; 1 when run by hand). */
unsigned
workerAttempt()
{
    const char *env = std::getenv(supervise::kAttemptEnv);
    if (env == nullptr || *env == '\0') {
        return 1;
    }
    const std::uint64_t n =
        api::detail::parseUint(env, supervise::kAttemptEnv);
    if (n < 1) {
        COOPSIM_FATAL("invalid ", supervise::kAttemptEnv, " value '",
                      env, "' (attempts are 1-based)");
    }
    return static_cast<unsigned>(n);
}

/**
 * The supervised flow: fork one worker per shard, validate each
 * shard's store after a clean exit, retry with backoff, then either
 * render the merged table (bit-identical to unsharded) or report the
 * missing keys and fail.
 */
int
runSupervised(const char *binary, const api::CliOptions &cli,
              const api::ExperimentSpec &spec,
              const api::CliOptions &effective, unsigned threads)
{
    if (cli.shards == 0) {
        COOPSIM_FATAL("--supervise requires --shards=N");
    }
    api::warmAllRegistries();
    // The store directory must exist before the first worker forks:
    // its log file lives there, and a failed log open would leak
    // worker output into the parent's (bit-identical) stdout.
    std::error_code ec;
    std::filesystem::create_directories(cli.store_dir, ec);
    if (ec) {
        COOPSIM_FATAL("cannot create store directory '", cli.store_dir,
                      "': ", ec.message());
    }
    const std::vector<sim::RunKey> keys = api::expandSpec(spec);

    supervise::RetryPolicy policy;
    policy.max_attempts = cli.shard_retries;
    policy.shard_timeout_s = cli.shard_timeout_s;

    const auto launch = [&](unsigned shard,
                            unsigned attempt) -> supervise::ProcessResult {
        std::vector<std::string> args = {
            binary,
            "--spec=" + cli.spec_path,
            "--shard=" + std::to_string(shard) + "/" +
                std::to_string(cli.shards),
            "--store=" + cli.store_dir,
        };
        if (cli.scale_set) {
            args.push_back("--scale=" + cli.scale_name);
        }
        if (cli.threads > 0) {
            args.push_back("--threads=" + std::to_string(cli.threads));
        }
        if (cli.seed.has_value()) {
            args.push_back("--seed=" + std::to_string(*cli.seed));
        }
        if (!cli.trace_dir.empty()) {
            // Workers must resolve trace: workloads exactly like the
            // parent that sharded the key list for them.
            args.push_back("--trace-dir=" + cli.trace_dir);
        }
        if (cli.sampling_set) {
            // Same rule: workers must expand the same sampled key
            // list the parent validates shard stores against.
            args.push_back("--sampling=" + cli.sampling_name);
        }
        if (cli.no_stream_memo) {
            args.push_back("--no-stream-memo");
        }
        if (cli.stream_cache_mb > 0) {
            args.push_back("--stream-cache-mb=" +
                           std::to_string(cli.stream_cache_mb));
        }
        if (!cli.trace_cache_dir.empty()) {
            // Each worker warm-starts shared streams from the cache
            // directory instead of regenerating them per process; the
            // first worker to finish a stream spills it for the rest.
            args.push_back("--trace-cache=" + cli.trace_cache_dir);
        }
        const std::vector<std::string> env = {
            std::string(supervise::kAttemptEnv) + "=" +
            std::to_string(attempt)};
        // Workers write to a per-shard log, never to the parent's
        // stdout — a successful supervised run must be bit-identical
        // to the unsharded table.
        const std::string log =
            cli.store_dir + "/shard-" + std::to_string(shard) + "of" +
            std::to_string(cli.shards) + ".log";
        return supervise::runProcess(args, env, cli.shard_timeout_s,
                                     log);
    };
    // A worker that exits 0 must also have persisted every key of its
    // slice: a torn or corrupted shard store (crash inside save, disk
    // fault) consumes an attempt exactly like a crash.
    const auto validate = [&](unsigned shard, std::string &why) {
        const std::string path =
            cli.store_dir + "/" +
            store::shardFileName(shard, cli.shards);
        store::ResultStore shard_store;
        shard_store.loadFile(path);
        const std::vector<sim::RunKey> slice =
            api::shardKeys(keys, shard, cli.shards);
        std::size_t missing = 0;
        for (const sim::RunKey &key : slice) {
            if (!shard_store.contains(key)) {
                ++missing;
            }
        }
        if (missing > 0) {
            why = std::to_string(missing) + " of " +
                  std::to_string(slice.size()) +
                  " slice keys missing from " + path;
            return false;
        }
        return true;
    };

    const supervise::SuperviseReport report = supervise::superviseShards(
        cli.shards, policy, launch, validate);
    supervise::printSuperviseReport(report, stderr);

    if (!report.allSucceeded()) {
        // Degraded merge: fold what the surviving shards produced and
        // name exactly what is missing — never die silently, never
        // recompute behind the caller's back.
        store::ResultStore merged;
        merged.loadDir(cli.store_dir);
        std::size_t missing = 0;
        for (const sim::RunKey &key : keys) {
            if (!merged.find(key).has_value()) {
                if (missing < 5) {
                    std::fprintf(stderr, "# supervise: missing %s\n",
                                 api::formatRunKey(key).c_str());
                }
                ++missing;
            }
        }
        std::string failed;
        for (const unsigned shard : report.failedShards()) {
            failed += failed.empty() ? "" : ", ";
            failed += std::to_string(shard);
        }
        std::fprintf(stderr,
                     "# supervise: DEGRADED: %zu of %zu keys missing "
                     "after retries exhausted on shard(s) %s\n",
                     missing, keys.size(), failed.c_str());
        // Keep what the surviving shards did produce: the partial
        // merge is still a valid warm store for a later retry.
        std::string error;
        const std::string merged_path =
            cli.store_dir + "/" + store::kMergedFileName;
        if (merged.trySave(merged_path, error)) {
            std::fprintf(stderr,
                         "# store: saved %zu partial results to %s\n",
                         merged.size(), merged_path.c_str());
        } else {
            std::fprintf(stderr,
                         "error: partial merge save failed: %s\n",
                         error.c_str());
        }
        return 2;
    }

    // Every shard landed: merge and render exactly like `--merge` —
    // all keys are warm, so the table is served with zero simulations
    // and stdout is bit-identical to the unsharded run.
    api::attachCliStore(cli);
    api::printPreamble(effective, threads);
    api::printExperiment(spec, cli.show_ci);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    api::CliOptions cli =
        api::parseCli(argc, argv, api::kAllFlags, kUsage);

    if (!cli.spec_path.empty()) {
        // Re-parse against the spec-mode flag set so a flag the spec
        // run would silently drop (--scheme, --group, --threshold,
        // --csv) is rejected instead.
        cli = api::parseCli(argc, argv,
                            api::kFlagSpec | api::kFlagScale |
                                api::kFlagThreads | api::kFlagSeed |
                                api::kFlagStore | api::kFlagShard |
                                api::kFlagMerge | api::kFlagSupervise |
                                api::kFlagRecord | api::kFlagTraceDir |
                                api::kFlagSampling | api::kFlagCi |
                                api::kFlagStreamMemo,
                            kUsage);
    } else if (cli.shard_set || cli.merge || cli.supervise ||
               cli.shards > 0) {
        COOPSIM_FATAL(
            "--shard, --merge and --supervise require --spec=FILE");
    } else if (!cli.record_dir.empty()) {
        COOPSIM_FATAL("--record requires --spec=FILE (it records the "
                      "spec's workloads)");
    }
    api::applyCliStreamMemo(cli);
    const unsigned threads = api::applyCliThreads(cli);
    if (!cli.trace_dir.empty()) {
        tracefile::registerTraceDir(cli.trace_dir);
    }

    if (!cli.spec_path.empty()) {
        if (cli.shard_set && cli.merge) {
            COOPSIM_FATAL("--shard and --merge are mutually exclusive");
        }
        if (cli.supervise && (cli.shard_set || cli.merge)) {
            COOPSIM_FATAL("--supervise is mutually exclusive with "
                          "--shard and --merge");
        }
        if (!cli.supervise && cli.shards > 0) {
            COOPSIM_FATAL("--shards=N requires --supervise");
        }
        if ((cli.shard_set || cli.merge || cli.supervise) &&
            cli.store_dir.empty()) {
            COOPSIM_FATAL(
                "--shard, --merge and --supervise require --store=DIR");
        }
        if (!cli.record_dir.empty()) {
            // Recording is a serial capture pass over the generators;
            // none of the sweep-distribution machinery applies to it.
            if (cli.shard_set) {
                COOPSIM_FATAL("--record is mutually exclusive with "
                              "--shard: record once, then shard the "
                              "replay sweep");
            }
            if (cli.merge) {
                COOPSIM_FATAL("--record is mutually exclusive with "
                              "--merge: recording writes trace files, "
                              "not result stores");
            }
            if (cli.supervise) {
                COOPSIM_FATAL("--record is mutually exclusive with "
                              "--supervise: recording runs serially in "
                              "this process");
            }
            if (!cli.store_dir.empty()) {
                COOPSIM_FATAL("--record does not take --store: it "
                              "writes .cooptrace files to the --record "
                              "directory, not simulation results");
            }
        }

        api::ExperimentSpec spec = api::parseSpecFile(cli.spec_path);
        if (cli.scale_set) {
            spec.scale = cli.scale_name;
        }
        if (cli.seed.has_value()) {
            spec.seeds = {*cli.seed};
        }
        if (cli.sampling_set) {
            spec.sampling = {cli.sampling_name};
        }
        if (!cli.trace_dir.empty()) {
            bool any_trace = false;
            for (const std::string &group : spec.groups) {
                any_trace =
                    any_trace || tracefile::isTraceWorkload(group);
            }
            if (!any_trace) {
                COOPSIM_WARN("--trace-dir given, but spec '", spec.name,
                             "' names no trace: workloads — the "
                             "registered traces will go unused");
            }
        }
        if (!cli.record_dir.empty()) {
            const std::size_t files =
                tracefile::recordSpec(spec, cli.record_dir);
            std::fprintf(stderr,
                         "# record: wrote %zu trace file(s) to %s\n",
                         files, cli.record_dir.c_str());
            return 0;
        }
        // The preamble names the scale the spec actually runs at,
        // not the CLI default.
        api::CliOptions effective = cli;
        effective.scale = api::scaleRegistry().get(spec.scale);

        if (cli.supervise) {
            return runSupervised(argv[0], cli, spec, effective,
                                 threads);
        }

        if (cli.shard_set) {
            // Shard mode: compute (and persist) this slice only; the
            // table needs every cell, so none is rendered here.
            // Fault injection (COOPSIM_FAULT) is armed here — and only
            // here — so supervised workers misbehave deterministically
            // while the parent and unsharded runs never do.
            supervise::armFaultsFromEnv(cli.shard_index,
                                        workerAttempt());
            auto result_store = std::make_shared<store::ResultStore>();
            result_store->loadDir(cli.store_dir);
            sim::RunExecutor &executor = sim::RunExecutor::instance();
            executor.attachStore(result_store);

            const std::vector<sim::RunKey> keys = api::expandSpec(spec);
            const std::vector<sim::RunKey> slice = api::shardKeys(
                keys, cli.shard_index, cli.shard_count);
            api::printPreamble(effective, threads);
            std::printf("# shard %u/%u: %zu of %zu runs\n",
                        cli.shard_index, cli.shard_count, slice.size(),
                        keys.size());

            executor.prefetch(slice);
            store::ResultStore shard_results;
            for (const sim::RunKey &key : slice) {
                try {
                    shard_results.put(key, executor.run(key));
                } catch (const sim::RunFailure &failure) {
                    std::fprintf(stderr, "error: %s\n", failure.what());
                    return 1;
                }
            }
            // The crash/hang checkpoint sits between compute and save:
            // a crashed attempt leaves no shard file at all, which is
            // exactly the torn state the supervisor must recover from.
            supervise::workerCheckpoint();
            const std::string path =
                cli.store_dir + "/" +
                store::shardFileName(cli.shard_index, cli.shard_count);
            shard_results.save(path);
            api::printRunStats();
            std::fprintf(stderr, "# store: saved %zu results to %s\n",
                         shard_results.size(), path.c_str());
            return 0;
        }

        // Unsharded run, optionally store-backed; --merge is the same
        // path with the store mandatory: loading folds every shard
        // file in the directory (last-writer-wins), the table renders
        // from the folded results, and the at-exit save persists the
        // merged store to results.coopstore.
        api::attachCliStore(cli);
        api::printPreamble(effective, threads);
        api::printExperiment(spec, cli.show_ci);
        return 0;
    }

    // Single-cell mode: one spec with one value per axis.
    api::attachCliStore(cli);
    api::ExperimentSpec spec;
    spec.name = "cli";
    spec.layout = "none";
    spec.schemes = {cli.scheme};
    spec.groups = {cli.group};
    spec.thresholds = {cli.threshold.value_or(0.05)};
    spec.seeds = {cli.seed.value_or(42)};
    spec.scale = cli.scale_name;
    if (cli.sampling_set) {
        spec.sampling = {cli.sampling_name};
    }
    const api::ExperimentResults results = api::runExperiment(spec);

    api::Cell cell;
    cell.group = cli.group;
    const sim::RunResult &result = results.result(cell);
    const double ws = results.weightedSpeedup(cell);

    if (cli.csv) {
        std::printf("%s\n%s\n", sim::csvHeader().c_str(),
                    sim::csvRow(api::schemeLabel(cli.scheme),
                                cli.group, result, ws)
                        .c_str());
        return 0;
    }

    std::printf("# %s on %s (T=%.2f, seed=%llu)\n",
                api::schemeLabel(cli.scheme).c_str(),
                cli.group.c_str(), spec.thresholds[0],
                static_cast<unsigned long long>(spec.seeds[0]));
    std::printf("weighted_speedup %f\n", ws);
    if (cli.show_ci) {
        std::printf("weighted_speedup_ci %f\n",
                    results.weightedSpeedupCi(cell));
    }
    std::printf("%s", sim::formatRunResult(result, "run").c_str());
    return 0;
}
