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
 *    in-flight runs: rerunning the same command finishes it. Loading
 *    folds every `*.coopstore` file in DIR, so store files copied
 *    from other hosts count too.
 *  - otherwise, one (scheme x group) cell with configurable
 *    threshold/seed/scale: its weighted speedup, then the run's store
 *    line (`formatRunKey` TAB `formatResult`, as DIR/results.coopstore
 *    holds it under `--store=DIR`, less the `\t#crc32=` trailer).
 *
 * Schemes/groups/scales are registry names: `unmanaged fairshare ucp
 * cpe coop`, `G2-1`..`G4-14`, `test bench paper`.
 */

#include <cstdio>

#include <coopsim/experiment.hpp>

using namespace coopsim;

namespace
{

constexpr const char *kUsage =
    "usage: coopsim_cli [--spec=FILE] [--scheme=coop] [--group=G2-3]\n"
    "                   [--threshold=0.05] [--seed=N]\n"
    "                   [--scale=test|bench|paper] [--full] "
    "[--threads=N]\n"
    "                   [--store=DIR] [--sampling=exact|set|op|setop]\n"
    "                   [--ci]\n"
    "with --spec, only --scale/--threads/--seed/--store/--sampling/\n"
    "--ci may also be given (the first three and --sampling override\n"
    "the spec file).\n"
    "Sweeps memoize op streams in each process (generate once, replay\n"
    "everywhere) within a 256 MB budget.\n";

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
                                api::kFlagStore | api::kFlagSampling |
                                api::kFlagCi,
                            kUsage);
    }
    const unsigned threads = api::applyCliThreads(cli);

    if (!cli.spec_path.empty()) {
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

        // Optionally store-backed: loading folds every store file in
        // the directory (last-writer-wins), the table renders from
        // the folded results, and the at-exit save persists the
        // merged store to results.coopstore.
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
    const api::ExperimentResults results(spec);

    api::Cell cell;
    cell.group = cli.group;
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
    std::printf("%s\n", store::formatStoreLine(results.keyFor(cell),
                                               results.result(cell))
                           .c_str());
    return 0;
}
