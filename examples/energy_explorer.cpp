/**
 * @file
 * Explores the paper's central trade-off for one workload: sweep the
 * turn-off threshold T and print performance against dynamic/static
 * energy, so the "knee" at T = 0.05 (the paper's default) is visible.
 *
 * Usage: energy_explorer [group] [--full]   (default G2-2)
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
                      "usage: energy_explorer [group] [--scale=...] "
                      "[--full] [--threads=N]\n");
    api::applyCliThreads(cli);
    const std::string group_name =
        cli.positional.empty() ? "G2-2" : cli.positional.front();

    // The Cooperative threshold sweep: one axis carries the whole
    // experiment; a value added here is automatically prefetched too.
    api::ExperimentSpec sweep_spec;
    sweep_spec.name = "energy_explorer";
    sweep_spec.layout = "none";
    sweep_spec.schemes = {"coop"};
    sweep_spec.groups = {group_name};
    sweep_spec.thresholds = {0.0,  0.01, 0.02, 0.05,
                             0.08, 0.1,  0.15, 0.2};
    sweep_spec.scale = cli.scale_name;
    const api::ExperimentResults sweep(sweep_spec);

    // Fair Share reference for the normalisation, prefetched in
    // parallel with the sweep above.
    api::ExperimentSpec ref_spec = sweep_spec;
    ref_spec.schemes = {"fairshare"};
    ref_spec.thresholds = {0.0};
    const api::ExperimentResults ref(ref_spec);

    const trace::WorkloadGroup &group = sweep.groups().front();
    api::Cell fair_cell;
    fair_cell.group = group.name;
    const sim::RunResult &fair = ref.result(fair_cell);
    const double fair_ws = ref.weightedSpeedup(fair_cell);

    // LLC associativity of the system this group runs on (8 for the
    // two-core topology, 16 for four-core, ...).
    const double llc_ways = static_cast<double>(
        sim::makeSystemConfig(
            static_cast<std::uint32_t>(group.apps.size()), "coop",
            cli.scale)
            .llc.geometry.ways);

    std::printf("threshold sweep for %s (values normalised to "
                "Fair Share)\n\n",
                group.name.c_str());
    std::printf("%8s %12s %12s %12s %10s %8s\n", "T", "w.speedup",
                "dynamic", "static", "ways/acc", "offways");

    for (const double t : sweep.spec().thresholds) {
        api::Cell cell;
        cell.group = group.name;
        cell.threshold = t;
        const sim::RunResult &r = sweep.result(cell);
        const double ws = sweep.weightedSpeedup(cell);

        // Average powered ways back-computed from the leakage ratio.
        const double powered_ratio =
            (r.static_energy_nj / static_cast<double>(r.total_cycles)) /
            (fair.static_energy_nj /
             static_cast<double>(fair.total_cycles));
        std::printf("%8.2f %12.3f %12.3f %12.3f %10.2f %8.1f\n", t,
                    ws / fair_ws,
                    r.dynamic_energy_nj / fair.dynamic_energy_nj,
                    r.static_energy_nj / fair.static_energy_nj,
                    r.avg_ways_probed,
                    llc_ways * (1.0 - powered_ratio));
    }

    std::printf("\nThe paper selects T = 0.05: the largest threshold "
                "with (near) zero\nperformance loss. Larger T values "
                "buy energy with real slowdowns\n(Figures 11-13).\n");
    return 0;
}
