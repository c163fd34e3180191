/**
 * @file
 * Banked (sliced) LLC: an array of per-bank monolithic LLCs behind a
 * slice-selection hash, the way real many-core parts organise their
 * last-level cache.
 *
 * The total geometry is divided set-wise: each of the `banks` slices
 * owns total_size/banks bytes at the full way count, with its own tag
 * array, MSHR-equivalent state, UMON monitors, partitioner and energy
 * meter — a bank is simply a BaseLlc scheme instance built by the same
 * factory as the monolithic path, so every scheme works banked without
 * modification. Addresses route to exactly one bank via SliceHash
 * (llc/slice_hash.hpp).
 *
 * Contention model: each bank has one port with a busy-until cycle.
 * An access that arrives while its bank is busy queues until the port
 * frees (counted in bankConflicts()/bankConflictCycles()); every
 * access then occupies the port for bank_occupancy_cycles. With
 * banks=1 the conflict model is disabled entirely and the wrapper
 * forwards `now` unchanged, so a one-bank banked LLC is cycle- and
 * bit-identical to the monolithic scheme it wraps.
 *
 * Determinism: bank 0 keeps the configured seed (so banks=1 reproduces
 * the monolithic RNG stream exactly); bank b > 0 derives its seed as
 * seed + b * 0x9e3779b9, keeping per-bank replacement streams
 * decorrelated but purely a function of the RunKey.
 */

#ifndef COOPSIM_LLC_BANKED_HPP
#define COOPSIM_LLC_BANKED_HPP

#include <functional>
#include <memory>
#include <vector>

#include "llc/shared_cache.hpp"
#include "llc/slice_hash.hpp"

namespace coopsim::llc
{

/** Builds one bank from its per-bank config (the scheme factory). */
using BankFactory = std::function<std::unique_ptr<BaseLlc>(
    const LlcConfig &, mem::DramModel &)>;

/** Slice-hashed array of BaseLlc banks presenting one Llc. */
class BankedLlc final : public Llc
{
  public:
    /**
     * @param config  The *total* LLC config (banks > 1, or banks = 1
     *                with the Xor hash); geometry is divided set-wise
     *                across banks.
     * @param dram    Shared memory-side model (banks contend in DRAM
     *                exactly as the monolithic LLC's cores do).
     * @param factory Scheme factory invoked once per bank with that
     *                bank's slice of the geometry.
     */
    BankedLlc(const LlcConfig &config, mem::DramModel &dram,
              const BankFactory &factory);

    LlcAccess access(CoreId core, Addr addr, AccessType type,
                     Cycle now) override;
    void epoch(Cycle now) override;
    double poweredWays() const override;
    std::vector<std::uint32_t> allocation() const override;
    Scheme scheme() const override;
    void integrateStatic(Cycle now) override;
    void resetStats(Cycle now) override;

    const LlcConfig &config() const override { return config_; }
    const CoreLlcStats &coreStats(CoreId core) const override;
    const TakeoverEventStats &takeoverEvents() const override;
    const stats::TimeSeries &flushSeries() const override;
    const std::vector<double> &transferDurations() const override;
    std::uint64_t flushedLines() const override;
    std::uint64_t epochsRun() const override;
    std::uint64_t repartitions() const override;
    energy::EnergyTotals energyTotals() const override;
    double avgWaysProbed() const override;

    std::uint32_t banks() const override { return config_.banks; }
    Cycle portAccess(Addr addr, Cycle now) override;
    void carryBacklog(Cycle from, Cycle delta) override
    {
        for (Cycle &busy : busy_until_) {
            if (busy > from) {
                busy += delta;
            }
        }
    }
    std::uint64_t bankConflicts() const override { return conflicts_; }
    std::uint64_t bankConflictCycles() const override
    {
        return conflict_cycles_;
    }

    /** The routing hash (inspection/tests). */
    const SliceHash &hash() const { return hash_; }
    /** Bank @p b (inspection/tests). */
    const BaseLlc &bank(std::uint32_t b) const { return *banks_[b]; }

  private:
    /** portAccess for an already hashed bank: queues behind the bank's
     *  busy port and holds it for bank_occupancy_cycles. */
    Cycle claimPort(std::uint32_t bank, Cycle now);

    LlcConfig config_;
    SliceHash hash_;
    std::vector<std::unique_ptr<BaseLlc>> banks_;
    /** Cycle each bank's port frees (conflict model; banks > 1). */
    std::vector<Cycle> busy_until_;
    std::uint64_t conflicts_ = 0;
    std::uint64_t conflict_cycles_ = 0;

    /** Lazily merged cross-bank views handed out by reference;
     *  coreStats(c) refreshes slot c only. */
    mutable std::vector<CoreLlcStats> merged_core_stats_;
    mutable TakeoverEventStats merged_events_;
    mutable stats::TimeSeries merged_flush_series_;
    mutable std::vector<double> merged_transfer_durations_;
};

} // namespace coopsim::llc

#endif // COOPSIM_LLC_BANKED_HPP
