/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator (synthetic trace
 * generators, random replacement, random way selection in Algorithm 2)
 * draws from an explicitly seeded Rng instance so that whole simulations
 * are reproducible bit-for-bit from a single seed.
 *
 * The engine is xoshiro256** (Blackman & Vigna), implemented here to
 * avoid any dependence on the standard library's unspecified
 * distributions.
 */

#ifndef COOPSIM_COMMON_RNG_HPP
#define COOPSIM_COMMON_RNG_HPP

#include <array>
#include <cmath>
#include <cstdint>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace coopsim
{

/**
 * A discrete cumulative distribution over @p N classes with a guide
 * table (Chen & Asau, 1974) for Rng::nextFromCdf: guide[b] is the
 * first class whose cumulative probability exceeds b / 256, the floor
 * of the draws whose top 8 bits are b. Every class a linear scan would
 * pass over before reaching guide[b] has a cumulative probability of
 * at most that floor, so such a draw can start its scan at guide[b]
 * and return the same class.
 */
template <std::uint32_t N>
class GuidedCdf
{
    static_assert(N > 0 && N <= 256, "guide entries are one byte");

  public:
    GuidedCdf() = default;

    /** @param cdf Monotone cumulative probabilities; the last entry
     *             should be 1.0 (draws beyond it take class N - 1). */
    explicit GuidedCdf(const std::array<double, N> &cdf) : cdf_(cdf)
    {
        std::uint32_t i = 0;
        for (std::uint32_t b = 0; b < kBuckets; ++b) {
            const double floor = static_cast<double>(b) / kBuckets;
            while (i + 1 < N && cdf_[i] <= floor) {
                ++i;
            }
            guide_[b] = static_cast<std::uint8_t>(i);
        }
    }

    const std::array<double, N> &cdf() const { return cdf_; }

    /**
     * The class of u = @p bits * 2^-53, for 53 uniform random @p bits:
     * the first class whose cumulative probability exceeds u, or the
     * last class when none does — what a linear scan returns.
     */
    std::uint32_t
    classOf(std::uint64_t bits) const
    {
        const double u = static_cast<double>(bits) * 0x1.0p-53;
        // The top 8 of the 53 bits: floor(u * 256).
        std::uint32_t i = guide_[bits >> 45];
        while (i + 1 < N && !(u < cdf_[i])) {
            ++i;
        }
        return i;
    }

  private:
    static constexpr std::uint32_t kBuckets = 256;

    std::array<double, N> cdf_{};
    std::array<std::uint8_t, kBuckets> guide_{};
};

/**
 * A small, fast, deterministic PRNG (xoshiro256**).
 *
 * The draws the op generator makes for every op are defined here, so
 * they inline into its loop.
 */
class Rng
{
  public:
    /** Seeds the engine via SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) — @p bound must be > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        COOPSIM_ASSERT(bound > 0, "nextBelow(0)");
        // Multiply-shift rejection-free mapping is fine for simulation
        // use.
        const __uint128_t wide = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(wide >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p) { return nextDouble() < p; }

    /**
     * Draws a class from @p table: the first class whose cumulative
     * probability exceeds a uniform draw u in [0, 1), or the last.
     */
    template <std::uint32_t N>
    std::uint32_t
    nextFromCdf(const GuidedCdf<N> &table)
    {
        return table.classOf(next() >> 11);
    }

    /** Geometric-like draw: number of failures before a success. */
    std::uint64_t nextGeometric(double p_success);

    /**
     * Cached-log variant for callers that draw many times with the
     * same @p p_success: @p log1p_neg_p must equal
     * std::log1p(-p_success) (ignored when p_success >= 1). Performs
     * the identical operations on the identical draw, so the result
     * is bit-identical to nextGeometric(p_success).
     */
    std::uint64_t
    nextGeometric(double p_success, double log1p_neg_p)
    {
        COOPSIM_ASSERT(p_success > 0.0 && p_success <= 1.0,
                       "geometric p out of range");
        if (p_success >= 1.0) {
            return 0;
        }
        const double u = nextDouble();
        return static_cast<std::uint64_t>(
            std::floor(std::log1p(-u) / log1p_neg_p));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace coopsim

#endif // COOPSIM_COMMON_RNG_HPP
