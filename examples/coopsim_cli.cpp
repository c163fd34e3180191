/**
 * @file
 * Command-line driver over the experiment API.
 *
 * Modes:
 *
 *  - `--spec=FILE` runs a full declarative experiment from a spec
 *    file and renders its table, then counts its runs on stderr
 *    (`# runs:`); `--scale=`/`--threads=`/`--seed=` override the
 *    file. specs/ defines each of the paper's figures:
 *        coopsim_cli --spec=specs/fig05.spec --scale=test
 *  - `--spec=FILE --store=DIR` additionally serves every run already
 *    in DIR's result store from disk (zero simulations when warm —
 *    see the stderr run-count stat), journals each new result into
 *    DIR as it completes, and persists them all to
 *    DIR/results.coopstore on exit. A killed run loses only its
 *    in-flight runs: rerunning the same command finishes it.
 *  - `--spec=FILE --shard=I/N --store=DIR` runs only the i-th
 *    round-robin slice of the expanded RunKey list and saves it to
 *    DIR/shard-IofN.coopstore; no table is rendered. Run all N
 *    shards (on as many hosts as you like), collect the shard files
 *    into one directory, then run `--spec=FILE --store=DIR`: it folds
 *    every store file in DIR into DIR/results.coopstore and renders
 *    the table, bit-identical to an unsharded run.
 *  - otherwise, one (scheme x group) cell with configurable
 *    threshold/seed/scale, printed as a full stat dump.
 *
 * Schemes/groups/scales are registry names: `unmanaged fairshare ucp
 * cpe coop`, `G2-1`..`G4-14`, `test bench paper`.
 */

#include <cstdio>

#include <coopsim/experiment.hpp>

#include "common/logging.hpp"
#include "sim/executor.hpp"
#include "sim/report.hpp"

using namespace coopsim;

namespace
{

constexpr const char *kUsage =
    "usage: coopsim_cli [--spec=FILE] [--scheme=coop] [--group=G2-3]\n"
    "                   [--threshold=0.05] [--seed=N]\n"
    "                   [--scale=test|bench|paper] [--full] "
    "[--threads=N]\n"
    "                   [--store=DIR] [--shard=I/N]\n"
    "                   [--sampling=exact|set|op|setop] [--ci]\n"
    "                   [--no-stream-memo] [--stream-cache-mb=N]\n"
    "with --spec, only --scale/--threads/--seed/--store/--shard/\n"
    "--sampling/--ci/--no-stream-memo/--stream-cache-mb may also be\n"
    "given (the first three and --sampling override the spec file).\n"
    "--shard requires --spec and --store; a later --store run over\n"
    "the same directory folds the shard files and renders the table.\n"
    "Sweeps memoize op streams in each process (generate once, replay\n"
    "everywhere); --no-stream-memo regenerates per run,\n"
    "--stream-cache-mb=N bounds the memo.\n";

} // namespace

int
main(int argc, char **argv)
{
    api::CliOptions cli =
        api::parseCli(argc, argv, api::kAllFlags, kUsage);

    if (!cli.spec_path.empty()) {
        // Re-parse against the spec-mode flag set so a flag the spec
        // run would silently drop (--scheme, --group, --threshold) is
        // rejected instead.
        cli = api::parseCli(argc, argv,
                            api::kFlagSpec | api::kFlagScale |
                                api::kFlagThreads | api::kFlagSeed |
                                api::kFlagStore | api::kFlagShard |
                                api::kFlagSampling | api::kFlagCi |
                                api::kFlagStreamMemo,
                            kUsage);
    } else if (cli.shard_set) {
        COOPSIM_FATAL("--shard requires --spec=FILE");
    }
    api::applyCliStreamMemo(cli);
    const unsigned threads = api::applyCliThreads(cli);

    if (!cli.spec_path.empty()) {
        if (cli.shard_set && cli.store_dir.empty()) {
            COOPSIM_FATAL("--shard requires --store=DIR");
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
        // The preamble names the scale the spec actually runs at,
        // not the CLI default.
        api::CliOptions effective = cli;
        effective.scale = api::scaleRegistry().get(spec.scale);

        if (cli.shard_set) {
            // Shard mode: compute (and persist) this slice only; the
            // table needs every cell, so none is rendered here. Its
            // runs are journaled like an unsharded run's, so a killed
            // shard reruns only what it had not finished.
            auto result_store = std::make_shared<store::ResultStore>();
            result_store->loadDir(cli.store_dir);
            result_store->openJournal(cli.store_dir);
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
            // Other shards may be journaling into the same directory,
            // so only this process's own journal goes.
            const std::string path =
                cli.store_dir + "/" +
                store::shardFileName(cli.shard_index, cli.shard_count);
            std::string error;
            const std::optional<std::size_t> saved =
                api::finishStoreSession(shard_results, path,
                                        *result_store, false, error);
            if (!saved) {
                COOPSIM_FATAL(error);
            }
            api::printRunStats();
            std::fprintf(stderr, "# store: saved %zu results to %s\n",
                         *saved, path.c_str());
            return 0;
        }

        // Unsharded run, optionally store-backed: loading folds every
        // store file in the directory, shard files included
        // (last-writer-wins), the table renders from the folded
        // results, and the at-exit save persists the merged store to
        // results.coopstore.
        api::attachCliStore(cli);
        api::printPreamble(effective, threads);
        api::printExperiment(spec, cli.show_ci);
        if (cli.store_dir.empty()) {
            api::printRunStats(); // a --store run prints it at exit
        }
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
