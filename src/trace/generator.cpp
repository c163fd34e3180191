#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"

namespace coopsim::trace
{

double
AppProfile::expectedMissRatio(std::uint32_t ways) const
{
    auto phase_miss = [ways](const AppPhase &phase) {
        double miss = phase.pmf.miss_prob;
        for (std::uint32_t r = ways; r < kMaxRank; ++r) {
            miss += phase.pmf.rank[r];
        }
        return miss;
    };
    if (!hasPhases()) {
        return phase_miss(primary);
    }
    return 0.5 * (phase_miss(primary) + phase_miss(secondary));
}

std::array<double, kMaxRank + 1>
buildClassCdf(const RankPmf &pmf)
{
    COOPSIM_ASSERT(pmf.miss_prob >= 0.0 && pmf.miss_prob <= 1.0,
                   "miss_prob out of range");
    double assigned = pmf.miss_prob;
    for (std::uint32_t r = 0; r < kMaxRank; ++r) {
        COOPSIM_ASSERT(pmf.rank[r] >= 0.0, "negative rank probability");
        assigned += pmf.rank[r];
    }
    COOPSIM_ASSERT(assigned <= 1.0 + 1e-9, "rank pmf exceeds 1");

    // Unassigned mass is the hot re-reference traffic: it re-touches
    // rank 0 (hits under any non-zero allocation).
    const double hot = std::max(0.0, 1.0 - assigned);

    std::array<double, kMaxRank + 1> cdf{};
    cdf[0] = pmf.miss_prob;
    double acc = pmf.miss_prob + hot;
    for (std::uint32_t r = 0; r < kMaxRank; ++r) {
        acc += pmf.rank[r];
        cdf[r + 1] = acc;
    }
    cdf[kMaxRank] = 1.0;
    return cdf;
}

SyntheticStream::SyntheticStream(const AppProfile &profile,
                                 const StreamGeometry &geometry,
                                 std::uint32_t space, std::uint64_t seed)
    : profile_(profile),
      geometry_(geometry),
      slicer_(geometry.llc_sets, geometry.block_bytes),
      rng_(seed ^ (0x9e3779b97f4a7c15ull * (space + 1))),
      space_base_(static_cast<Addr>(space + 1) << 44),
      lists_(geometry.llc_sets),
      list_sizes_(geometry.llc_sets, 0)
{
    COOPSIM_ASSERT(profile.primary.apki > 0.0, "apki must be positive");
    const AppPhase *phases[2] = {
        &profile.primary,
        profile.hasPhases() ? &profile.secondary : &profile.primary};
    for (std::size_t i = 0; i < phases_.size(); ++i) {
        PhaseDraw &draw = phases_[i];
        draw.classes = GuidedCdf<kMaxRank + 1>(buildClassCdf(phases[i]->pmf));
        draw.gap_p = std::min(1.0, phases[i]->apki / 1000.0);
        draw.gap_log1p = draw.gap_p < 1.0 ? std::log1p(-draw.gap_p) : 0.0;
    }
    refreshPhase();
}

void
SyntheticStream::refreshPhase()
{
    if (!profile_.hasPhases()) {
        active_phase_ = 0;
        phase_switch_insts_ = std::numeric_limits<InstCount>::max();
    } else {
        const InstCount phase_no =
            generated_insts_ / profile_.phase_insts;
        active_phase_ = static_cast<std::uint32_t>(phase_no % 2);
        phase_switch_insts_ = (phase_no + 1) * profile_.phase_insts;
    }
}

std::uint32_t
SyntheticStream::newBlock()
{
    // The block number provides an address's tag bits (addrOf forces
    // the set index). Where it reaches into the space tag, the address
    // has those bits set either way: drop them, so that blocks with
    // equal addresses have equal list entries.
    COOPSIM_ASSERT(next_block_ < (std::uint64_t{1} << 32),
                   "synthetic stream exhausted its 2^32 block numbers");
    return static_cast<std::uint32_t>(next_block_++ &
                                      ~slicer_.tag(space_base_));
}

void
SyntheticStream::touch(SetId set, std::uint32_t block)
{
    auto &list = lists_[set];
    std::uint8_t &size = list_sizes_[set];

    // Find the block (it may be absent for brand-new blocks).
    std::uint32_t pos = size;
    for (std::uint32_t i = 0; i < size; ++i) {
        if (list[i] == block) {
            pos = i;
            break;
        }
    }
    if (pos == size && size < list.size()) {
        ++size;
        pos = size - 1;
    } else if (pos == size) {
        pos = static_cast<std::uint32_t>(list.size()) - 1;
    }
    // Shift [0, pos) down by one; place block at rank 0.
    for (std::uint32_t i = pos; i > 0; --i) {
        list[i] = list[i - 1];
    }
    list[0] = block;
}

void
SyntheticStream::promote(SetId set, std::uint32_t rank)
{
    auto &list = lists_[set];
    const std::uint32_t block = list[rank];
    for (std::uint32_t i = rank; i > 0; --i) {
        list[i] = list[i - 1];
    }
    list[0] = block;
}

std::size_t
SyntheticStream::nextBatch(core::MemOp *out, std::size_t max)
{
    for (std::size_t i = 0; i < max; ++i) {
        out[i] = generate();
    }
    return max;
}

core::MemOp
SyntheticStream::generate()
{
    // The phase decision the per-op code derived from a division is
    // served from the cache until the instruction count crosses the
    // precomputed phase end — same selection, amortised cost.
    if (generated_insts_ >= phase_switch_insts_) {
        refreshPhase();
    }
    const PhaseDraw &draw = phases_[active_phase_];

    // Gap between LLC accesses: geometric with mean 1000/apki - 1,
    // giving naturally bursty arrivals (the source of overlapping
    // misses the OoO model exploits).
    const InstCount gap = rng_.nextGeometric(draw.gap_p, draw.gap_log1p);

    // Pick the access class: 0 = new block, k = recency rank k-1.
    const std::uint32_t cls = rng_.nextFromCdf(draw.classes);

    Addr addr = 0;
    if (cls == 0) {
        const SetId set = static_cast<SetId>(
            rng_.nextBelow(geometry_.llc_sets));
        const std::uint32_t block = newBlock();
        touch(set, block);
        addr = addrOf(set, block);
    } else {
        const std::uint32_t rank = cls - 1;
        // Find a set whose list is deep enough; sample a few times and
        // fall back to a new block during cold start.
        for (int attempt = 0; attempt < 4 && addr == 0; ++attempt) {
            const SetId set = static_cast<SetId>(
                rng_.nextBelow(geometry_.llc_sets));
            if (list_sizes_[set] > rank) {
                promote(set, rank);
                addr = addrOf(set, lists_[set][0]);
            }
        }
        if (addr == 0) {
            const SetId set = static_cast<SetId>(
                rng_.nextBelow(geometry_.llc_sets));
            const std::uint32_t block = newBlock();
            touch(set, block);
            addr = addrOf(set, block);
        }
    }

    core::MemOp op;
    op.gap_insts = gap;
    op.addr = addr;
    op.type = rng_.nextBool(profile_.write_fraction) ? AccessType::Write
                                                     : AccessType::Read;
    generated_insts_ += gap + 1;
    return op;
}

} // namespace coopsim::trace
