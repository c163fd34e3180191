/**
 * @file
 * Way masks and victim selection policies for mask-restricted sets.
 *
 * The partitioning schemes need three flavours:
 *  - Lru:    classic least-recently-used within the allowed ways;
 *  - Random: uniform choice within the allowed ways (the paper notes
 *            way-aligned transfer is "closer in performance to a random
 *            choice of replacement block" — used in ablations);
 *  - Mru:    most-recently-used (anti-LRU, for adversarial tests).
 */

#ifndef COOPSIM_CACHE_REPLACEMENT_HPP
#define COOPSIM_CACHE_REPLACEMENT_HPP

#include <bit>
#include <cstdint>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace coopsim::cache
{

/** Bitmap over the ways of a set: bit w set means way w is included. */
using WayMask = std::uint64_t;

/** A mask covering ways [0, ways). */
constexpr WayMask
fullMask(std::uint32_t ways)
{
    return ways >= 64 ? ~WayMask{0} : ((WayMask{1} << ways) - 1);
}

/**
 * Index of the lowest set bit of a non-empty mask. The hot loops visit
 * only the ways actually present in a mask — `mask & (mask - 1)` clears
 * the bit just visited — instead of testing all 64 way positions.
 */
constexpr WayId
lowestWay(WayMask mask)
{
    return static_cast<WayId>(std::countr_zero(mask & -mask));
}

/**
 * The way of @p mask (non-empty) whose stamp in @p stamps is smallest
 * (@p Newest false) or largest (@p Newest true), the lowest way on a
 * tie. The running best is kept with selects, not branches: which way
 * wins depends on the data, so a branch would mispredict about once
 * per scan.
 */
template <bool Newest>
WayId
extremeStampWay(const std::uint64_t *stamps, WayMask mask)
{
    WayId best = lowestWay(mask);
    std::uint64_t best_stamp = stamps[best];
    for (WayMask m = mask & (mask - 1); m != 0; m &= m - 1) {
        const WayId w = lowestWay(m);
        const std::uint64_t stamp = stamps[w];
        const bool better = Newest ? stamp > best_stamp : stamp < best_stamp;
        best = better ? w : best;
        best_stamp = better ? stamp : best_stamp;
    }
    return best;
}

/** Selects how victims are chosen among allowed, valid ways. */
enum class ReplPolicy : std::uint8_t
{
    Lru,
    Random,
    Mru,
};

/**
 * Stateless-per-set victim selector (the per-block LRU stamps live in
 * the cache's SoA lru array; Random keeps an Rng).
 */
class ReplacementPolicy
{
  public:
    explicit ReplacementPolicy(ReplPolicy policy, std::uint64_t seed);

    /**
     * Chooses a victim among the ways whose LRU stamps are
     * @p set_lru[0..ways), restricted to @p mask. All masked ways are
     * valid (callers prefer invalid ways before consulting the
     * policy).
     *
     * @param set_lru Pointer to the set's slice of the LRU-stamp array.
     * @param ways    Associativity.
     * @param mask    Allowed ways; must select at least one of
     *                [0, ways).
     */
    WayId victim(const std::uint64_t *set_lru, std::uint32_t ways,
                 WayMask mask)
    {
        mask &= fullMask(ways);
        COOPSIM_ASSERT(mask != 0, "victim selection over empty mask");
        switch (policy_) {
          case ReplPolicy::Lru:
            return extremeStampWay<false>(set_lru, mask);
          case ReplPolicy::Mru:
            return extremeStampWay<true>(set_lru, mask);
          case ReplPolicy::Random:
            break;
        }
        return randomVictim(mask);
    }

    ReplPolicy kind() const { return policy_; }

  private:
    /** Uniform choice among the ways of a non-empty @p mask. */
    WayId randomVictim(WayMask mask);

    ReplPolicy policy_;
    Rng rng_;
};

} // namespace coopsim::cache

#endif // COOPSIM_CACHE_REPLACEMENT_HPP
