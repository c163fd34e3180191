#include "llc/shared_cache.hpp"

#include "common/logging.hpp"

namespace coopsim::llc
{

namespace
{

energy::CacheEnergyProfile
profileFor(const LlcConfig &config, bool has_partition_hw)
{
    energy::CacheOrg org;
    org.size_bytes = config.geometry.size_bytes;
    org.ways = config.geometry.ways;
    org.block_bytes = config.geometry.block_bytes;
    org.has_partition_hw = has_partition_hw;
    return energy::deriveProfile(org);
}

} // namespace

bool
sameButDecision(const LlcConfig &a, const LlcConfig &b)
{
    LlcConfig decided = b;
    decided.partitioner = a.partitioner;
    decided.threshold = a.threshold;
    decided.threshold_mode = a.threshold_mode;
    return decided == a;
}

BaseLlc::BaseLlc(const LlcConfig &config, mem::DramModel &dram,
                 bool has_partition_hw)
    : config_(config),
      array_(config.geometry, config.repl, config.seed),
      dram_(&dram),
      energy_(profileFor(config, has_partition_hw), config.geometry.ways),
      core_stats_(config.num_cores),
      flush_series_(config.flush_series_bin, kFlushSeriesBins)
{
    COOPSIM_ASSERT(config.num_cores > 0, "LLC with no cores");
    if (config.geometry.ways < config.num_cores) {
        COOPSIM_FATAL("LLC geometry ", config.geometry.size_bytes,
                      " B / ", config.geometry.ways, "-way / ",
                      config.geometry.block_bytes,
                      " B blocks cannot host ", config.num_cores,
                      " cores: way partitioning needs ways >= cores");
    }
}

void
BaseLlc::epoch(Cycle now)
{
    integrateStatic(now);
    epochs_.inc();
}

double
BaseLlc::poweredWays() const
{
    return static_cast<double>(config_.geometry.ways);
}

void
BaseLlc::resetStats(Cycle now)
{
    integrateStatic(now);
    energy_.resetTotals(now);
    for (auto &cs : core_stats_) {
        cs = CoreLlcStats{};
    }
    events_ = TakeoverEventStats{};
    flush_series_.reset();
    transfer_durations_.clear();
    flushed_lines_.reset();
    epochs_.reset();
    repartitions_.reset();
}

const CoreLlcStats &
BaseLlc::coreStats(CoreId core) const
{
    COOPSIM_ASSERT(core < core_stats_.size(), "core id out of range");
    return core_stats_[core];
}

std::uint64_t
Llc::hitsTotal() const
{
    std::uint64_t total = 0;
    for (CoreId core = 0; core < config().num_cores; ++core) {
        total += coreStats(core).hits.value();
    }
    return total;
}

std::uint64_t
Llc::missesTotal() const
{
    std::uint64_t total = 0;
    for (CoreId core = 0; core < config().num_cores; ++core) {
        total += coreStats(core).misses.value();
    }
    return total;
}

void
BaseLlc::recordFlush(Cycle now)
{
    flushed_lines_.inc();
    energy_.onBlockDrain();
    const Tick offset = now >= flush_origin_ ? now - flush_origin_ : 0;
    flush_series_.record(offset);
}

} // namespace coopsim::llc
