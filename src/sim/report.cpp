#include "sim/report.hpp"

namespace coopsim::sim
{

stats::StatGroup
toStatGroup(const RunResult &result, const std::string &name)
{
    stats::StatGroup group(name);
    group.add("total_cycles", result.total_cycles);
    group.add("dynamic_energy_nj", result.dynamic_energy_nj);
    group.add("data_energy_nj", result.data_energy_nj);
    group.add("static_energy_nj", result.static_energy_nj);
    group.add("avg_ways_probed", result.avg_ways_probed);
    group.add("epochs", result.epochs);
    group.add("repartitions", result.repartitions);
    group.add("completed_transfers", result.completed_transfers);
    group.add("avg_transfer_cycles", result.avg_transfer_cycles);
    group.add("flushed_lines", result.flushed_lines);
    group.add("takeover_donor_hits", result.donor_hits);
    group.add("takeover_donor_misses", result.donor_misses);
    group.add("takeover_recipient_hits", result.recipient_hits);
    group.add("takeover_recipient_misses", result.recipient_misses);
    group.add("dram_reads", result.dram_reads);
    group.add("dram_writebacks", result.dram_writebacks);
    group.add("dram_flushes", result.dram_flushes);
    for (std::size_t i = 0; i < result.apps.size(); ++i) {
        const AppResult &app = result.apps[i];
        const std::string prefix =
            "core" + std::to_string(i) + "." + app.name + ".";
        group.add(prefix + "ipc", app.ipc);
        group.add(prefix + "insts", app.insts);
        group.add(prefix + "cycles", app.cycles);
        group.add(prefix + "mpki", app.mpki);
        group.add(prefix + "llc_accesses", app.llc_accesses);
        group.add(prefix + "llc_hits", app.llc_hits);
        group.add(prefix + "llc_misses", app.llc_misses);
    }
    return group;
}

std::string
formatRunResult(const RunResult &result, const std::string &name)
{
    return toStatGroup(result, name).format();
}

} // namespace coopsim::sim
