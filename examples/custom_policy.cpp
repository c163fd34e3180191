/**
 * @file
 * Demonstrates extending the library with a custom partitioning
 * scheme: a QoS-style way-aligned policy giving a fixed priority core
 * a fixed large share (cf. the CQoS/virtual-private-cache line of work
 * the paper cites), with the unused remainder power-gated.
 *
 * The example subclasses llc::BaseLlc — the same interface the five
 * built-in schemes implement. Its access() only states each core's way
 * mask and hands it to BaseLlc::accessWithin, which does the lookup,
 * the hit or the fill (with its dirty-victim writeback and DRAM read)
 * and the stats and energy, as it does for Unmanaged and Fair Share.
 * The example then simply REGISTERS the class under the name
 * "priority". From that point it is a first-class scheme: it runs on
 * the executor through the normal System event loop, is memoised by
 * RunKey, and could be named in any ExperimentSpec or spec file, next
 * to "fairshare" and "coop".
 */

#include <bit>
#include <cstdio>

#include <coopsim/experiment.hpp>

#include "llc/schemes.hpp"

using namespace coopsim;

namespace
{

/**
 * Fixed-priority way-aligned partitioning: core 0 owns
 * `priority_ways`; the other cores split half the remainder; the rest
 * of the cache is power-gated.
 */
class PriorityLlc final : public llc::BaseLlc
{
  public:
    PriorityLlc(const llc::LlcConfig &config, mem::DramModel &dram,
                std::uint32_t priority_ways)
        : BaseLlc(config, dram, /*has_partition_hw=*/true),
          masks_(config.num_cores, 0)
    {
        // Core 0 gets its guaranteed share.
        for (WayId w = 0; w < priority_ways; ++w) {
            masks_[0] |= cache::WayMask{1} << w;
        }
        // Others round-robin over half of what is left; the rest stays
        // dark for static-energy savings.
        const std::uint32_t rest = config.geometry.ways - priority_ways;
        const std::uint32_t lit = rest / 2;
        for (std::uint32_t i = 0; i < lit; ++i) {
            const WayId w = priority_ways + i;
            const CoreId owner = 1 + (i % (config.num_cores - 1));
            masks_[owner] |= cache::WayMask{1} << w;
        }
        powered_ = priority_ways + lit;
    }

    llc::LlcAccess access(CoreId core, Addr addr, AccessType type,
                          Cycle now) override
    {
        // The scheme's whole rule: which ways a core may probe and
        // fill. BaseLlc does the hit, the fill and the accounting.
        integrateStatic(now);
        const Addr aligned = array_.slicer().blockAlign(addr);
        return accessWithin(
            core, aligned, array_.slicer().set(aligned), masks_[core],
            static_cast<std::uint32_t>(std::popcount(masks_[core])), type,
            now, true);
    }

    std::vector<std::uint32_t> allocation() const override
    {
        std::vector<std::uint32_t> alloc;
        for (const cache::WayMask m : masks_) {
            alloc.push_back(
                static_cast<std::uint32_t>(std::popcount(m)));
        }
        return alloc;
    }

    double poweredWays() const override
    {
        return static_cast<double>(powered_);
    }

    // Reuse an existing tag for simplicity; the registry name is the
    // real identity now.
    llc::Scheme scheme() const override
    {
        return llc::Scheme::FairShare;
    }

  private:
    std::vector<cache::WayMask> masks_;
    std::uint32_t powered_ = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const api::CliOptions cli =
        api::parseCli(argc, argv, api::kExampleFlags,
                      "usage: custom_policy [group] [--scale=...] "
                      "[--full] [--threads=N]\n");
    api::applyCliThreads(cli);
    const std::string group_name =
        cli.positional.empty() ? "G2-5" : cli.positional.front();

    // The whole extension: one registration call. Everything below
    // runs "priority" through the same executor/memoisation path as
    // the built-in schemes.
    api::registerScheme(
        "priority", "Priority(5w)",
        [](const llc::LlcConfig &config, mem::DramModel &dram) {
            return std::make_unique<PriorityLlc>(config, dram,
                                                 /*priority_ways=*/5);
        });

    api::ExperimentSpec spec;
    spec.name = "custom_policy";
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"fairshare", "priority"};
    spec.groups = {group_name};
    spec.scale = cli.scale_name;
    const api::ExperimentResults results(spec);

    const trace::WorkloadGroup &group = results.groups().front();
    std::printf("custom QoS policy on %s (%s prioritised)\n\n",
                group.name.c_str(), group.apps[0].c_str());
    std::printf("%-22s %10s %10s %12s %10s\n", "policy", "ipc[0]",
                "ipc[1]", "dyn(mJ)", "ways/acc");

    for (const std::string &scheme : results.spec().schemes) {
        api::Cell cell;
        cell.group = group.name;
        cell.scheme = scheme;
        const sim::RunResult &r = results.result(cell);
        std::printf("%-22s %10.3f %10.3f %12.4f %10.2f\n",
                    api::schemeLabel(scheme).c_str(), r.apps[0].ipc,
                    r.apps[1].ipc, r.dynamic_energy_nj * 1e-6,
                    r.avg_ways_probed);
    }

    std::printf("\nThe custom policy trades the background core's "
                "performance for the\npriority core's, and gates the "
                "leftover capacity — all through the\nsame BaseLlc + "
                "registry interface the paper's schemes use.\n");
    return 0;
}
