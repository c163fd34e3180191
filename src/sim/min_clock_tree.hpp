/**
 * @file
 * Top-2 tournament tree over the per-core clocks.
 *
 * The global-order event loop in System::run() picks the laggard core
 * before every quantum and bounds the quantum by the runner-up's
 * clock. A linear scan is O(n) per quantum, which makes the driver
 * itself the bottleneck once n grows past the paper's 2/4 cores.
 *
 * Each leaf holds one core's packed key `clock << kIndexBits | index`,
 * so comparing two keys compares clocks first and breaks ties toward
 * the lower core index — the linear scan's tie rule — in one unsigned
 * compare. Each internal node holds the best and the runner-up key of
 * its subtree. Merging two children is branch-free:
 *
 *     best   = min(a.best, b.best)
 *     second = min(max(a.best, b.best), min(a.second, b.second))
 *
 * (the loser of the two bests competes with both runners-up; the
 * winner's own runner-up never beats the loser's best, so the min over
 * both is exact). update() re-merges the leaf's root path, one merge
 * per level, and minIndex() and secondBest() read the root in O(1).
 * Every node is a pure function of its subtree, so any leaf may be
 * updated, not only the winner's — the op-sampling fast-forward path
 * re-updates a core that is no longer the arbitration winner.
 *
 * Padding leaves (up to the next power of two) and the runner-up of a
 * single leaf hold kEmpty, the all-ones key, which every real key is
 * strictly below: clocks are asserted to fit in kMaxClock. A one-core
 * tree therefore has kEmpty as its root runner-up, which secondBest()
 * reports as kNoSecond.
 *
 * The answers are bit-identical to the linear scans: tests/
 * test_topology.cpp and tests/test_hotpath.cpp property-check both
 * against them for 1..17 and the 31..64-core rows the topology table
 * runs, under randomised updates of winners and non-winners alike.
 */

#ifndef COOPSIM_SIM_MIN_CLOCK_TREE_HPP
#define COOPSIM_SIM_MIN_CLOCK_TREE_HPP

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace coopsim::sim
{

class MinClockTree
{
  public:
    /** Low key bits that carry the core index (up to 65536 cores). */
    static constexpr unsigned kIndexBits = 16;
    /** Largest clock a key can carry (keeps every key below kEmpty). */
    static constexpr Cycle kMaxClock = (kCycleMax >> kIndexBits) - 1;

    /** Builds the tree over @p clocks (one entry per core). */
    explicit MinClockTree(const std::vector<Cycle> &clocks)
        : n_(static_cast<std::uint32_t>(clocks.size())),
          leaves_(std::bit_ceil(n_ > 0 ? n_ : 1u)),
          node_(2 * leaves_, Node{kEmpty, kEmpty})
    {
        COOPSIM_ASSERT(n_ > 0, "tournament tree with no cores");
        COOPSIM_ASSERT(n_ <= (1u << kIndexBits), "tournament tree with ",
                       n_, " cores exceeds the packed index width");
        for (std::uint32_t c = 0; c < n_; ++c) {
            node_[leaves_ + c].best = key(c, clocks[c]);
        }
        for (std::uint32_t i = leaves_ - 1; i >= 1; --i) {
            node_[i] = merged(node_[2 * i], node_[2 * i + 1]);
        }
    }

    /**
     * Refreshes core @p index's clock and re-merges its root path. The
     * path node stays in registers: each level loads only the sibling,
     * so no level waits on the store of the level below it.
     */
    void update(std::uint32_t index, Cycle clock)
    {
        COOPSIM_ASSERT(index < n_, "core index out of range");
        std::uint32_t i = leaves_ + index;
        Node path{key(index, clock), kEmpty};
        node_[i] = path;
        for (; i > 1; i /= 2) {
            path = merged(path, node_[i ^ 1u]);
            node_[i / 2] = path;
        }
    }

    /** Index of the minimum clock; lowest index on ties. */
    std::uint32_t minIndex() const
    {
        return static_cast<std::uint32_t>(node_[1].best & kIndexMask);
    }

    /** The runner-up of the arbitration (see file comment). */
    struct Second
    {
        /** Core index, or kNoSecond on single-core trees. */
        std::uint32_t index;
        /** Its clock; kCycleMax when there is no second core. */
        Cycle clock;
    };

    /** Sentinel index returned when the tree holds a single core. */
    static constexpr std::uint32_t kNoSecond =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * Minimum clock over every core except minIndex(), ties to the
     * lowest index — exactly what a linear scan skipping the winner
     * would return. O(1): the root caches it.
     */
    Second secondBest() const
    {
        const Key second = node_[1].second;
        if (second == kEmpty) {
            return {kNoSecond, kCycleMax};
        }
        return {static_cast<std::uint32_t>(second & kIndexMask),
                second >> kIndexBits};
    }

    Cycle clock(std::uint32_t index) const
    {
        return node_[leaves_ + index].best >> kIndexBits;
    }
    std::uint32_t size() const { return n_; }

  private:
    using Key = std::uint64_t;
    static constexpr Key kIndexMask = (Key{1} << kIndexBits) - 1;
    /** Padding leaves and absent runners-up; above every real key. */
    static constexpr Key kEmpty = std::numeric_limits<Key>::max();

    /** Subtree best and runner-up keys (leaves: runner-up kEmpty). */
    struct Node
    {
        Key best;
        Key second;
    };

    static Key key(std::uint32_t index, Cycle clock)
    {
        COOPSIM_ASSERT(clock <= kMaxClock, "clock ", clock,
                       " exceeds the tournament tree's key range");
        return (clock << kIndexBits) | index;
    }

    /**
     * min(a, b) as a mask select. Written with std::min, GCC compiled
     * the nested minimum of merged() to a data-dependent branch, and
     * update() ran about twice as slow; the mask form compiles to a
     * conditional move.
     */
    static Key minKey(Key a, Key b)
    {
        return b ^ ((a ^ b) & (Key{0} - Key{a < b}));
    }

    /** Top two keys of two disjoint subtrees (symmetric: the keys
     *  themselves carry the index tie rule). */
    static Node merged(const Node &a, const Node &b)
    {
        const Key best = minKey(a.best, b.best);
        const Key loser = a.best ^ b.best ^ best;
        return {best, minKey(loser, minKey(a.second, b.second))};
    }

    std::uint32_t n_;
    std::uint32_t leaves_;
    /** Heap layout: root at 1, leaves at [leaves_, 2 * leaves_). */
    std::vector<Node> node_;
};

} // namespace coopsim::sim

#endif // COOPSIM_SIM_MIN_CLOCK_TREE_HPP
