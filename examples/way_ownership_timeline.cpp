/**
 * @file
 * Visualises Cooperative Partitioning at work, composing the library's
 * lower-level pieces directly (cores, streams, LLC) instead of using
 * sim::System: runs two applications on the two-core system and
 * prints, at every partitioning epoch, the RAP/WAP state of each LLC
 * way — who owns it, which ways are in transition or draining, and
 * which are power-gated.
 *
 * Usage: way_ownership_timeline [group]   (default G2-12: soplex+gcc,
 * whose phase behaviour forces genuine way migration)
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/cli.hpp"
#include "core/trace_core.hpp"
#include "llc/schemes.hpp"
#include "sim/system.hpp"
#include "trace/workloads.hpp"

using namespace coopsim;

namespace
{

char
wayGlyph(const llc::PermissionFile &perms, WayId way)
{
    switch (perms.state(way)) {
      case llc::WayState::Off:
        return '.';
      case llc::WayState::Draining:
        return 'v';
      case llc::WayState::Transition:
        return '>';
      case llc::WayState::Steady:
        return static_cast<char>('0' + perms.writerOf(way));
    }
    return '?';
}

} // namespace

int
main(int argc, char **argv)
{
    const api::CliOptions cli =
        api::parseCli(argc, argv, api::kFlagPositional,
                      "usage: way_ownership_timeline [group]\n");
    const std::string group_name =
        cli.positional.empty() ? "G2-12" : cli.positional.front();
    const trace::WorkloadGroup &group = trace::groupByName(group_name);
    const auto n = static_cast<std::uint32_t>(group.apps.size());

    // Borrow the paper configuration (bench miniature) and build the
    // pieces by hand.
    const sim::SystemConfig config =
        sim::makeSystemConfig(n, "coop", sim::RunScale::Bench);

    mem::DramModel dram(config.dram);
    llc::CooperativeLlc coop(config.llc, dram);

    trace::StreamGeometry sg;
    sg.llc_sets = config.llc.geometry.numSets();
    sg.block_bytes = config.llc.geometry.block_bytes;

    std::vector<std::unique_ptr<trace::SyntheticStream>> streams;
    std::vector<std::unique_ptr<core::TraceCore>> cores;
    for (std::uint32_t c = 0; c < n; ++c) {
        streams.push_back(std::make_unique<trace::SyntheticStream>(
            trace::specProfile(group.apps[c]), sg, c, 42 + c));
        cores.push_back(std::make_unique<core::TraceCore>(
            c, config.core, coop, *streams[c]));
    }

    std::printf("way ownership timeline for %s (", group.name.c_str());
    for (std::uint32_t c = 0; c < n; ++c) {
        std::printf("%s%u=%s", c ? ", " : "", c,
                    group.apps[c].c_str());
    }
    std::printf(")\nlegend: digit = steady owner, > = in transition, "
                "v = draining, . = powered off\n\n");
    std::printf("%-14s %-*s %s\n", "epoch(cycles)",
                static_cast<int>(config.llc.geometry.ways) + 2, "ways",
                "allocation / powered");

    const InstCount quota = config.insts_per_app / 2;
    Cycle next_epoch = config.epoch_cycles;
    bool done = false;
    while (!done) {
        // Advance the globally earliest core (the driver invariant).
        std::uint32_t min = 0;
        for (std::uint32_t c = 1; c < n; ++c) {
            if (cores[c]->cycle() < cores[min]->cycle()) {
                min = c;
            }
        }
        if (cores[min]->cycle() >= next_epoch) {
            coop.epoch(next_epoch);

            std::printf("%-14llu ",
                        static_cast<unsigned long long>(next_epoch));
            for (WayId w = 0; w < config.llc.geometry.ways; ++w) {
                std::printf("%c", wayGlyph(coop.permissions(), w));
            }
            const auto alloc = coop.allocation();
            std::printf("   [");
            for (std::uint32_t c = 0; c < n; ++c) {
                std::printf("%s%u", c ? " " : "", alloc[c]);
            }
            std::printf("] / %.0f\n", coop.poweredWays());
            next_epoch += config.epoch_cycles;
            continue;
        }
        cores[min]->step();

        done = true;
        for (std::uint32_t c = 0; c < n; ++c) {
            done = done && cores[c]->retired() >= quota;
        }
    }

    std::printf("\nrun summary:\n");
    std::printf("  repartitions           %llu\n",
                static_cast<unsigned long long>(coop.repartitions()));
    std::printf("  completed transfers    %zu\n",
                coop.transferDurations().size());
    std::printf("  lines flushed          %llu\n",
                static_cast<unsigned long long>(coop.flushedLines()));
    std::printf("  forced completions     %llu\n",
                static_cast<unsigned long long>(
                    coop.forcedCompletions()));
    std::printf("  avg ways probed        %.2f\n",
                coop.energy().avgWaysProbed());
    return 0;
}
