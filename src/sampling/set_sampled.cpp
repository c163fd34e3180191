#include "sampling/set_sampled.hpp"

#include "common/logging.hpp"

namespace coopsim::sampling
{

SetSampledLlc::SetSampledLlc(const llc::LlcConfig &config,
                             std::uint32_t period, mem::DramModel &dram,
                             const InnerLlcFactory &factory)
    : config_(config), period_(period),
      slicer_(static_cast<std::uint32_t>(config.geometry.numSets()),
              config.geometry.block_bytes),
      dram_(&dram),
      miss_credit_(config.num_cores, 0),
      wb_credit_(config.num_cores, 0),
      snap_acc_(config.num_cores, 0),
      snap_miss_(config.num_cores, 0),
      snap_wb_(config.num_cores, 0),
      snap_age_(config.num_cores, kSnapRefresh)
{
    const std::uint64_t sets = config.geometry.numSets();
    if (period_ < 2 || !isPowerOfTwo(period_)) {
        COOPSIM_FATAL("set sample period ", period_,
                      " must be a power of two >= 2");
    }
    if (sets % period_ != 0 || sets / period_ == 0) {
        COOPSIM_FATAL("set sample period ", period_, " does not divide ",
                      sets, " LLC sets");
    }
    period_bits_ = floorLog2(period_);

    const llc::LlcConfig inner = innerConfig(config);
    if (inner.banks > 1 &&
        inner.geometry.numSets() % inner.banks != 0) {
        COOPSIM_FATAL("set sample period ", period_, " leaves ",
                      inner.geometry.numSets(),
                      " sets, not divisible over ", inner.banks,
                      " banks");
    }
    inner_ = factory(inner);
    COOPSIM_ASSERT(inner_ != nullptr, "inner LLC factory returned null");
}

SetSampledLlc::SetSampledLlc(const SetSampledLlc &warmed,
                             const llc::LlcConfig &config,
                             mem::DramModel &dram,
                             std::unique_ptr<llc::Llc> inner)
    : config_(config), period_(warmed.period_),
      period_bits_(warmed.period_bits_), slicer_(warmed.slicer_),
      dram_(&dram), inner_(std::move(inner)),
      miss_credit_(warmed.miss_credit_), wb_credit_(warmed.wb_credit_),
      snap_acc_(warmed.snap_acc_), snap_miss_(warmed.snap_miss_),
      snap_wb_(warmed.snap_wb_), snap_age_(warmed.snap_age_)
{
}

std::unique_ptr<llc::Llc>
SetSampledLlc::fork(mem::DramModel &dram, const llc::LlcConfig &config) const
{
    COOPSIM_ASSERT(llc::sameButDecision(config_, config),
                   "an LLC fork may change only the epoch decision's "
                   "settings");
    std::unique_ptr<llc::Llc> inner =
        inner_->fork(dram, innerConfig(config));
    if (inner == nullptr) {
        return nullptr;
    }
    return std::unique_ptr<llc::Llc>(
        new SetSampledLlc(*this, config, dram, std::move(inner)));
}

llc::LlcConfig
SetSampledLlc::innerConfig(const llc::LlcConfig &config) const
{
    llc::LlcConfig inner = config;
    inner.geometry.size_bytes = config.geometry.size_bytes / period_;
    return inner;
}

Addr
SetSampledLlc::translate(Addr addr) const
{
    // Drop the low period_bits of the set field (zero for every
    // sampled address) and splice tag and reduced set back together
    // over the inner array's geometry. Bijective per (tag, set), so
    // the inner cache reproduces the sampled sets' conflict behaviour
    // exactly.
    const SetId set = slicer_.set(addr);
    const Addr tag = slicer_.tag(addr);
    const std::uint32_t inner_set_bits =
        slicer_.setBits() - period_bits_;
    const Addr inner_block =
        (tag << inner_set_bits) | (static_cast<Addr>(set) >> period_bits_);
    return (inner_block << slicer_.blockBits()) |
           (addr & (slicer_.blockBytes() - 1));
}

llc::LlcAccess
SetSampledLlc::access(CoreId core, Addr addr, AccessType type, Cycle now)
{
    const SetId set = slicer_.set(addr);
    if ((set & (period_ - 1)) != 0) { // period_ is a power of two
        // Unsampled set: the access still claims its bank port (slice
        // contention is load-dependent and must see the full-rate
        // stream), then replicates the sampled sets' per-core miss and
        // writeback rates with integer credits, so DRAM carries the
        // full-rate load too and a synthetic miss pays the real
        // queueing delay of the moment.
        const Cycle start = inner_->portAccess(addr, now);
        if (++snap_age_[core] >= kSnapRefresh || snap_acc_[core] == 0) {
            const llc::CoreLlcStats &cs = inner_->coreStats(core);
            snap_acc_[core] = cs.accesses.value();
            snap_miss_[core] = cs.misses.value();
            snap_wb_[core] = cs.writebacks.value();
            snap_age_[core] = 0;
        }
        const std::uint64_t acc = snap_acc_[core];
        if (acc == 0) {
            // Cold start: no sampled evidence yet for this core.
            return {true, start + config_.hit_latency, 0};
        }
        wb_credit_[core] += snap_wb_[core];
        if (wb_credit_[core] >= acc) {
            wb_credit_[core] -= acc;
            dram_->writeback(addr, start);
        }
        miss_credit_[core] += snap_miss_[core];
        if (miss_credit_[core] >= acc) {
            miss_credit_[core] -= acc;
            const Cycle done = dram_->access(addr, type, start);
            return {false, done, 0};
        }
        return {true, start + config_.hit_latency, 0};
    }
    return inner_->access(core, translate(addr), type, now);
}

} // namespace coopsim::sampling
