/**
 * @file
 * Quickstart: one ExperimentSpec runs one workload group under every
 * partitioning scheme, and the results view prints the headline
 * numbers (weighted speedup, energy, ways probed).
 *
 * Usage: quickstart [group] [--full]
 *   group  a Table 4 name such as G2-3 (default) or G4-8.
 */

#include <cstdio>
#include <string>

#include <coopsim/experiment.hpp>

using namespace coopsim;

int
main(int argc, char **argv)
{
    const api::CliOptions cli =
        api::parseCli(argc, argv, api::kExampleFlags,
                      "usage: quickstart [group] [--scale=...] "
                      "[--full] [--threads=N]\n");
    api::applyCliThreads(cli);

    api::ExperimentSpec spec;
    spec.name = "quickstart";
    spec.layout = "none";
    spec.schemes = {"unmanaged", "fairshare", "cpe", "ucp", "coop"};
    spec.groups = {cli.positional.empty() ? "G2-3"
                                          : cli.positional.front()};
    spec.scale = cli.scale_name;
    const api::ExperimentResults results(spec);

    const trace::WorkloadGroup &group = results.groups().front();
    std::printf("workload %s:", group.name.c_str());
    for (const auto &app : group.apps) {
        std::printf(" %s", app.c_str());
    }
    std::printf("\n\n%-14s %9s %12s %12s %10s %8s\n", "scheme",
                "w.speedup", "dyn(mJ)", "stat(mJ)", "ways/acc",
                "LLCmiss%");

    for (const std::string &scheme : results.spec().schemes) {
        api::Cell cell;
        cell.group = group.name;
        cell.scheme = scheme;
        const sim::RunResult &r = results.result(cell);
        const double ws = results.weightedSpeedup(cell);
        std::uint64_t acc = 0;
        std::uint64_t miss = 0;
        for (const auto &app : r.apps) {
            acc += app.llc_accesses;
            miss += app.llc_misses;
        }
        std::printf("%-14s %9.3f %12.3f %12.3f %10.2f %8.2f\n",
                    api::schemeLabel(scheme).c_str(), ws,
                    r.dynamic_energy_nj * 1e-6,
                    r.static_energy_nj * 1e-6, r.avg_ways_probed,
                    acc > 0 ? 100.0 * static_cast<double>(miss) /
                                  static_cast<double>(acc)
                            : 0.0);
    }

    std::printf("\nPer-app IPC under Cooperative vs alone:\n");
    api::Cell coop_cell;
    coop_cell.group = group.name;
    coop_cell.scheme = "coop";
    const sim::RunResult &coop = results.result(coop_cell);
    const auto cores = static_cast<std::uint32_t>(group.apps.size());
    for (std::size_t i = 0; i < group.apps.size(); ++i) {
        const double alone = results.soloIpc(group.apps[i], cores);
        std::printf("  %-12s ipc=%.3f alone=%.3f (%.2fx)\n",
                    group.apps[i].c_str(), coop.apps[i].ipc, alone,
                    coop.apps[i].ipc / alone);
    }
    return 0;
}
