#include "llc/banked.hpp"

#include "common/geometry.hpp"
#include "common/logging.hpp"

namespace coopsim::llc
{

namespace
{

/** The per-bank slice of @p config's total geometry. */
LlcConfig
bankConfig(const LlcConfig &config, std::uint32_t bank)
{
    LlcConfig slice = config;
    slice.geometry.size_bytes = config.geometry.size_bytes / config.banks;
    slice.banks = 1;
    slice.slice_hash = SliceHashKind::Mod;
    if (bank > 0) {
        slice.seed = config.seed +
                     std::uint64_t{bank} * std::uint64_t{0x9e3779b9};
    }
    return slice;
}

} // namespace

BankedLlc::BankedLlc(const LlcConfig &config, mem::DramModel &dram,
                     const BankFactory &factory)
    : config_(config),
      hash_([&] {
          const std::uint64_t row_bytes =
              std::uint64_t{config.geometry.ways} *
              config.geometry.block_bytes;
          const std::uint64_t total_sets =
              config.geometry.size_bytes / row_bytes;
          if (config.banks == 0 || !isPowerOfTwo(config.banks)) {
              COOPSIM_FATAL("banked LLC with ", config.banks,
                            " banks: bank count must be a power of two "
                            "so set-interleaving divides the ",
                            total_sets, " sets evenly");
          }
          if (config.banks > total_sets) {
              COOPSIM_FATAL("banked LLC with ", config.banks,
                            " banks but only ", total_sets,
                            " sets: need at least one set per bank");
          }
          return SliceHash(config.slice_hash, config.banks,
                           config.geometry.block_bytes,
                           total_sets / config.banks);
      }()),
      busy_until_(config.banks, 0),
      merged_core_stats_(config.num_cores)
{
    banks_.reserve(config_.banks);
    for (std::uint32_t b = 0; b < config_.banks; ++b) {
        banks_.push_back(factory(bankConfig(config_, b), dram));
    }
    merged_flush_series_.configure(config_.flush_series_bin,
                                   config_.flush_series_bins);
}

Cycle
BankedLlc::claimPort(std::uint32_t bank, Cycle now)
{
    if (config_.banks <= 1) {
        return now;
    }
    Cycle start = now;
    Cycle &busy = busy_until_[bank];
    if (busy > now) {
        start = busy;
        ++conflicts_;
        conflict_cycles_ += busy - now;
    }
    busy = start + config_.bank_occupancy_cycles;
    return start;
}

Cycle
BankedLlc::portAccess(Addr addr, Cycle now)
{
    return claimPort(hash_.bank(addr), now);
}

LlcAccess
BankedLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    const std::uint32_t b = hash_.bank(addr);
    return banks_[b]->access(core, addr, type, claimPort(b, now));
}

void
BankedLlc::epoch(Cycle now)
{
    for (auto &bank : banks_) {
        bank->epoch(now);
    }
}

double
BankedLlc::poweredWays() const
{
    // Mean over banks: keeps the value on the per-slice way scale the
    // monolithic schemes report (a fully powered banked LLC reads
    // geometry.ways, not banks * ways).
    double total = 0.0;
    for (const auto &bank : banks_) {
        total += bank->poweredWays();
    }
    return total / static_cast<double>(banks_.size());
}

std::vector<std::uint32_t>
BankedLlc::allocation() const
{
    // Per-core total ways owned across all banks.
    std::vector<std::uint32_t> total(config_.num_cores, 0);
    for (const auto &bank : banks_) {
        const std::vector<std::uint32_t> alloc = bank->allocation();
        for (std::size_t c = 0; c < alloc.size() && c < total.size();
             ++c) {
            total[c] += alloc[c];
        }
    }
    return total;
}

Scheme
BankedLlc::scheme() const
{
    return banks_.front()->scheme();
}

void
BankedLlc::integrateStatic(Cycle now)
{
    for (auto &bank : banks_) {
        bank->integrateStatic(now);
    }
}

void
BankedLlc::resetStats(Cycle now)
{
    for (auto &bank : banks_) {
        bank->resetStats(now);
    }
    conflicts_ = 0;
    conflict_cycles_ = 0;
}

const CoreLlcStats &
BankedLlc::coreStats(CoreId core) const
{
    COOPSIM_ASSERT(core < config_.num_cores, "core id out of range");
    CoreLlcStats &ms = merged_core_stats_[core];
    ms = CoreLlcStats{};
    for (const auto &bank : banks_) {
        const CoreLlcStats &bs = bank->coreStats(core);
        ms.accesses.inc(bs.accesses.value());
        ms.hits.inc(bs.hits.value());
        ms.misses.inc(bs.misses.value());
        ms.writebacks.inc(bs.writebacks.value());
        ms.bypasses.inc(bs.bypasses.value());
    }
    return ms;
}

const TakeoverEventStats &
BankedLlc::takeoverEvents() const
{
    merged_events_ = TakeoverEventStats{};
    for (const auto &bank : banks_) {
        const TakeoverEventStats &es = bank->takeoverEvents();
        merged_events_.donor_hits.inc(es.donor_hits.value());
        merged_events_.donor_misses.inc(es.donor_misses.value());
        merged_events_.recipient_hits.inc(es.recipient_hits.value());
        merged_events_.recipient_misses.inc(
            es.recipient_misses.value());
    }
    return merged_events_;
}

const stats::TimeSeries &
BankedLlc::flushSeries() const
{
    merged_flush_series_.reset();
    for (const auto &bank : banks_) {
        const stats::TimeSeries &series = bank->flushSeries();
        for (std::size_t i = 0; i < series.bins(); ++i) {
            if (series.bin(i) > 0) {
                merged_flush_series_.record(
                    static_cast<Tick>(i) * series.binWidth(),
                    series.bin(i));
            }
        }
    }
    return merged_flush_series_;
}

const std::vector<double> &
BankedLlc::transferDurations() const
{
    merged_transfer_durations_.clear();
    for (const auto &bank : banks_) {
        const std::vector<double> &durations =
            bank->transferDurations();
        merged_transfer_durations_.insert(
            merged_transfer_durations_.end(), durations.begin(),
            durations.end());
    }
    return merged_transfer_durations_;
}

std::uint64_t
BankedLlc::flushedLines() const
{
    std::uint64_t total = 0;
    for (const auto &bank : banks_) {
        total += bank->flushedLines();
    }
    return total;
}

std::uint64_t
BankedLlc::epochsRun() const
{
    // Banks run epochs in lockstep; report one bank's count so the
    // value stays comparable to the monolithic LLC's.
    return banks_.front()->epochsRun();
}

std::uint64_t
BankedLlc::repartitions() const
{
    std::uint64_t total = 0;
    for (const auto &bank : banks_) {
        total += bank->repartitions();
    }
    return total;
}

energy::EnergyTotals
BankedLlc::energyTotals() const
{
    energy::EnergyTotals total;
    for (const auto &bank : banks_) {
        const energy::EnergyTotals &bt = bank->energy().totals();
        total.tag_nj += bt.tag_nj;
        total.data_nj += bt.data_nj;
        total.monitor_nj += bt.monitor_nj;
        total.drain_nj += bt.drain_nj;
        total.static_nj += bt.static_nj;
    }
    return total;
}

double
BankedLlc::avgWaysProbed() const
{
    std::uint64_t probed = 0;
    std::uint64_t accesses = 0;
    for (const auto &bank : banks_) {
        probed += bank->energy().waysProbedSum();
        accesses += bank->energy().accesses();
    }
    return accesses > 0
               ? static_cast<double>(probed) /
                     static_cast<double>(accesses)
               : 0.0;
}

} // namespace coopsim::llc
