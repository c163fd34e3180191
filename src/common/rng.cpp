#include "common/rng.hpp"

#include <cmath>

namespace coopsim
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_) {
        word = splitmix64(s);
    }
    // A zero state would be absorbing; splitmix64 can't produce all-zero
    // from any seed, but keep the guarantee explicit.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
        state_[0] = 1;
    }
}

std::uint64_t
Rng::nextGeometric(double p_success)
{
    return nextGeometric(p_success, std::log1p(-p_success));
}

} // namespace coopsim
