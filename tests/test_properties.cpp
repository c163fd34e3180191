/**
 * @file
 * Property-based tests: randomised sweeps (TEST_P) over the system's
 * key invariants (DESIGN.md Section 6).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "llc/schemes.hpp"
#include "partition/lookahead.hpp"

namespace coopsim::llc
{

struct UcpTestAccess
{
    /** Sets the per-core quotas an epoch would otherwise decide. */
    static void
    setAllocation(UcpLlc &llc, std::vector<std::uint32_t> alloc)
    {
        llc.alloc_ = std::move(alloc);
    }
};

} // namespace coopsim::llc

using namespace coopsim;
using namespace coopsim::llc;

namespace
{

LlcConfig
fuzzConfig(std::uint32_t sets, std::uint32_t ways, std::uint32_t cores)
{
    LlcConfig config;
    config.geometry = {static_cast<std::uint64_t>(sets) * ways * 64,
                       ways, 64};
    config.num_cores = cores;
    config.hit_latency = 12;
    config.umon_sample_period = 1;
    config.confirm_epochs = 1;
    config.stale_transition_cycles = 50'000;
    return config;
}

Addr
fuzzAddr(CoreId core, Addr tag, SetId set, std::uint32_t set_bits)
{
    return (static_cast<Addr>(core + 1) << 40) |
           (tag << (6 + set_bits)) | (static_cast<Addr>(set) << 6);
}

} // namespace

// ---------------------------------------------------------------------------
// Invariant fuzzing: random traffic + random epochs never violates the
// way-alignment and permission invariants, under every decision policy.
// After every epoch each core may still probe and fill at least one way:
// the invariant that lets the LLC have no bypass.

namespace
{

struct FuzzParams
{
    std::uint64_t seed;
    std::uint32_t cores;
    std::uint32_t ways;
};

const FuzzParams kFuzzShapes[] = {
    {1, 2, 4}, {2, 2, 8},  {3, 4, 8},  {4, 4, 16},
    {5, 3, 6}, {6, 2, 8},  {7, 4, 16}, {8, 2, 4},
};

/** Sets of every fuzzed LLC (4 set bits in fuzzAddr). */
constexpr std::uint32_t kFuzzSets = 16;

const partition::Partitioner kPartitioners[] = {
    partition::Partitioner::Lookahead,
    partition::Partitioner::EqualShare,
    partition::Partitioner::GreedyUtility,
};

/** 30000 random accesses with skewed per-core footprints, an epoch
 *  every 2500; @p after_epoch runs after each epoch. */
void
fuzzTraffic(Llc &llc, const FuzzParams &params,
            const std::function<void()> &after_epoch)
{
    Rng rng(params.seed);
    Cycle now = 0;
    for (int step = 0; step < 30000; ++step) {
        const auto core =
            static_cast<CoreId>(rng.nextBelow(params.cores));
        // Skewed footprints: core c reuses (c + 1) tags per set.
        const Addr tag = rng.nextBelow(2 * (core + 1) + 1);
        const auto set = static_cast<SetId>(rng.nextBelow(kFuzzSets));
        const AccessType type =
            rng.nextBool(0.3) ? AccessType::Write : AccessType::Read;
        now += 1 + rng.nextBelow(5);
        llc.access(core, fuzzAddr(core, tag, set, 4), type, now);

        if (step % 2500 == 2499) {
            llc.epoch(now);
            after_epoch();
        }
    }
}

/** The Cooperative decision policy a fuzz run uses. */
struct CoopPolicy
{
    double threshold;
    partition::ThresholdMode mode;
    partition::Partitioner partitioner;
};

std::vector<CoopPolicy>
coopPolicies()
{
    std::vector<CoopPolicy> policies;
    for (const double threshold : {0.0, 0.05, 0.2}) {
        for (const partition::ThresholdMode mode :
             {partition::ThresholdMode::MissRatio,
              partition::ThresholdMode::PaperLiteral}) {
            for (const partition::Partitioner partitioner :
                 kPartitioners) {
                policies.push_back({threshold, mode, partitioner});
            }
        }
    }
    return policies;
}

/** The Dynamic CPE decision policy a fuzz run uses. */
struct CpePolicy
{
    double gate_threshold;
    partition::Partitioner partitioner;
};

std::vector<CpePolicy>
cpePolicies()
{
    std::vector<CpePolicy> policies;
    for (const double gate : {0.0, 0.035, 0.5}) {
        for (const partition::Partitioner partitioner : kPartitioners) {
            policies.push_back({gate, partitioner});
        }
    }
    return policies;
}

} // namespace

class CoopFuzzTest
    : public ::testing::TestWithParam<std::tuple<FuzzParams, CoopPolicy>>
{
};

TEST_P(CoopFuzzTest, InvariantsSurviveRandomTraffic)
{
    const auto [params, policy] = GetParam();
    LlcConfig config = fuzzConfig(kFuzzSets, params.ways, params.cores);
    config.threshold = policy.threshold;
    config.threshold_mode = policy.mode;
    config.partitioner = policy.partitioner;
    mem::DramModel dram;
    CooperativeLlc llc(config, dram);

    fuzzTraffic(llc, params, [&] {
        llc.checkInvariants();
        const PermissionFile &perms = llc.permissions();
        for (CoreId c = 0; c < params.cores; ++c) {
            EXPECT_NE(perms.readMask(c) & perms.writeMask(c), 0u)
                << "core " << c << " has no way to probe and fill";
        }
    });
    llc.checkInvariants();

    // Allocation bookkeeping is conserved.
    const auto alloc = llc.allocation();
    const std::uint32_t total =
        std::accumulate(alloc.begin(), alloc.end(), 0u);
    EXPECT_LE(total, params.ways);
    EXPECT_GE(llc.poweredWays(), static_cast<double>(total));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CoopFuzzTest,
    ::testing::Combine(::testing::ValuesIn(kFuzzShapes),
                       ::testing::ValuesIn(coopPolicies())));

class CpeFuzzTest
    : public ::testing::TestWithParam<std::tuple<FuzzParams, CpePolicy>>
{
};

TEST_P(CpeFuzzTest, EveryCoreKeepsAWay)
{
    const auto [params, policy] = GetParam();
    LlcConfig config = fuzzConfig(kFuzzSets, params.ways, params.cores);
    config.cpe_gate_threshold = policy.gate_threshold;
    config.partitioner = policy.partitioner;
    mem::DramModel dram;
    DynamicCpeLlc llc(config, dram);

    fuzzTraffic(llc, params, [&] {
        cache::WayMask owned = 0;
        for (CoreId c = 0; c < params.cores; ++c) {
            EXPECT_NE(llc.maskOf(c), 0u) << "core " << c << " owns no way";
            EXPECT_EQ(owned & llc.maskOf(c), 0u) << "core " << c;
            owned |= llc.maskOf(c);
        }
        EXPECT_LE(static_cast<double>(std::popcount(owned)),
                  llc.poweredWays());

        // A way changing hands is flushed first: no core's ways hold
        // another core's dirty data.
        for (CoreId c = 0; c < params.cores; ++c) {
            std::uint64_t foreign = 0;
            for (cache::WayMask m = llc.maskOf(c); m != 0; m &= m - 1) {
                for (SetId s = 0; s < kFuzzSets; ++s) {
                    const cache::CacheBlock blk =
                        llc.array().block(s, cache::lowestWay(m));
                    foreign += blk.valid && blk.dirty && blk.owner != c;
                }
            }
            EXPECT_EQ(foreign, 0u)
                << "core " << c << "'s ways hold foreign dirty blocks";
        }
    });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CpeFuzzTest,
    ::testing::Combine(::testing::ValuesIn(kFuzzShapes),
                       ::testing::ValuesIn(cpePolicies())));

// ---------------------------------------------------------------------------
// Reference model: the static-partition schemes against naive recency
// lists. The model knows nothing of ways, masks or LRU timestamps:
// each set holds lists of blocks, most recent first, each list with a
// capacity, and a miss into a full list evicts by the scheme's rule.

namespace
{

enum class StaticRule
{
    Unmanaged, //!< one list of `ways` blocks per set
    FairShare, //!< one list per core, its round-robin way count long
    Ucp,       //!< one list of `ways` blocks, a quota per core
};

class ReferenceLlc
{
  public:
    struct Block
    {
        Addr addr;
        CoreId owner;
        bool dirty;
    };

    /** @p quotas are UCP's per-core block quotas; ways / cores each
     *  when empty. */
    ReferenceLlc(StaticRule rule, std::uint32_t sets, std::uint32_t ways,
                 std::uint32_t cores, std::vector<std::uint32_t> quotas = {})
        : writebacks(cores, 0), rule_(rule), cores_(cores),
          quotas_(quotas.empty()
                      ? std::vector<std::uint32_t>(cores, ways / cores)
                      : std::move(quotas))
    {
        lists_per_set_ = rule == StaticRule::FairShare ? cores : 1;
        lists_.resize(static_cast<std::size_t>(sets) * lists_per_set_);
        for (std::uint32_t list = 0; list < lists_per_set_; ++list) {
            // Fair Share deals ways out round-robin: core c gets way w
            // when w % cores == c.
            capacity_.push_back(rule == StaticRule::FairShare
                                    ? (ways - list + cores - 1) / cores
                                    : ways);
        }
    }

    /** Runs one access; true on a hit. A miss that evicts stores the
     *  evicted block's address in @p evicted. */
    bool access(CoreId core, Addr addr, SetId set, bool write,
                std::optional<Addr> &evicted)
    {
        evicted.reset();
        const std::uint32_t list_id =
            rule_ == StaticRule::FairShare ? core : 0;
        std::vector<Block> &list = lists_[set * lists_per_set_ + list_id];
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i].addr == addr) {
                Block hit = list[i];
                hit.dirty = hit.dirty || write;
                list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
                list.insert(list.begin(), hit);
                return true;
            }
        }
        if (list.size() == capacity_[list_id]) {
            const std::size_t v = victim(list, core);
            if (list[v].dirty) {
                ++writebacks[core];
            }
            evicted = list[v].addr;
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(v));
        }
        list.insert(list.begin(), Block{addr, core, write});
        return false;
    }

    /** Dirty victims written back, per requesting core. */
    std::vector<std::uint64_t> writebacks;

  private:
    /** Index of the block a miss by @p core evicts from a full list. */
    std::size_t victim(const std::vector<Block> &list, CoreId core) const
    {
        const std::size_t lru = list.size() - 1;
        if (rule_ != StaticRule::Ucp) {
            return lru;
        }
        std::vector<std::uint32_t> held(cores_, 0);
        for (const Block &b : list) {
            ++held[b.owner];
        }
        // The least recent block matching @p pred, or none.
        auto last = [&list](auto pred) -> std::optional<std::size_t> {
            for (std::size_t i = list.size(); i-- > 0;) {
                if (pred(list[i])) {
                    return i;
                }
            }
            return std::nullopt;
        };
        if (held[core] < quotas_[core]) {
            // Under quota: take from a core holding more than its own.
            if (const auto v = last([&](const Block &b) {
                    return b.owner != core &&
                           held[b.owner] > quotas_[b.owner];
                })) {
                return *v;
            }
        }
        if (const auto v =
                last([&](const Block &b) { return b.owner == core; })) {
            return *v;
        }
        return lru;
    }

    StaticRule rule_;
    std::uint32_t cores_;
    std::vector<std::uint32_t> quotas_;
    std::uint32_t lists_per_set_ = 1;
    std::vector<std::uint32_t> capacity_;
    std::vector<std::vector<Block>> lists_;
};

} // namespace

namespace
{

/**
 * Drives @p llc and @p model with the same 20 k random accesses from
 * cores with footprints on both sides of their share. On every access
 * the hit flag, the eviction and every core's writeback count must
 * match the model's.
 */
void
expectMatchesModel(BaseLlc &llc, ReferenceLlc &model,
                   const FuzzParams &params, std::uint32_t sets,
                   std::uint64_t seed)
{
    const cache::WayMask all = cache::fullMask(params.ways);
    const auto set_bits = static_cast<std::uint32_t>(std::countr_zero(sets));
    Rng rng(seed);
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        const auto core = static_cast<CoreId>(rng.nextBelow(params.cores));
        // Core c reuses about (c + 1) shares of tags per set.
        const Addr tag =
            rng.nextBelow((core + 1) * params.ways / params.cores + 2);
        const auto set = static_cast<SetId>(rng.nextBelow(sets));
        const bool write = rng.nextBool(0.3);
        const Addr addr = fuzzAddr(core, tag, set, set_bits);
        now += 1 + rng.nextBelow(5);

        std::optional<Addr> evicted;
        const bool want_hit = model.access(core, addr, set, write, evicted);
        const LlcAccess got = llc.access(
            core, addr, write ? AccessType::Write : AccessType::Read, now);
        const auto where = [&] {
            return ::testing::Message() << "step " << step << " core "
                                        << core << " set " << set;
        };
        ASSERT_EQ(got.hit, want_hit) << where();
        ASSERT_TRUE(llc.array().lookup(addr, all).hit) << where();
        if (evicted) {
            ASSERT_FALSE(llc.array().lookup(*evicted, all).hit)
                << where() << " kept 0x" << std::hex << *evicted;
        }
        for (CoreId c = 0; c < params.cores; ++c) {
            ASSERT_EQ(llc.coreStats(c).writebacks.value(),
                      model.writebacks[c])
                << where() << " writebacks of core " << c;
        }
    }
}

} // namespace

class StaticSchemeReferenceTest
    : public ::testing::TestWithParam<FuzzParams>
{
};

TEST_P(StaticSchemeReferenceTest, SchemesMatchTheRecencyListModel)
{
    // Unmanaged, Fair Share, and UCP before its first epoch (its
    // initial ways / cores quota).
    const FuzzParams params = GetParam();
    constexpr std::uint32_t kSets = 16;
    const LlcConfig config = fuzzConfig(kSets, params.ways, params.cores);
    for (const StaticRule rule :
         {StaticRule::Unmanaged, StaticRule::FairShare, StaticRule::Ucp}) {
        mem::DramModel dram;
        std::unique_ptr<BaseLlc> llc;
        switch (rule) {
          case StaticRule::Unmanaged:
            llc = std::make_unique<UnmanagedLlc>(config, dram);
            break;
          case StaticRule::FairShare:
            llc = std::make_unique<FairShareLlc>(config, dram);
            break;
          case StaticRule::Ucp:
            llc = std::make_unique<UcpLlc>(config, dram);
            break;
        }
        ReferenceLlc model(rule, kSets, params.ways, params.cores);
        SCOPED_TRACE(::testing::Message()
                     << "rule " << static_cast<int>(rule));
        ASSERT_NO_FATAL_FAILURE(
            expectMatchesModel(*llc, model, params, kSets, params.seed));
    }
}

TEST_P(StaticSchemeReferenceTest, UcpMatchesTheModelUnderUnevenQuotas)
{
    // UCP's over-quota rule under the uneven quotas an epoch hands
    // out: random per-core allocations, each at least one way and
    // not all equal, summing to the ways.
    const FuzzParams params = GetParam();
    constexpr std::uint32_t kSets = 16;
    const LlcConfig config = fuzzConfig(kSets, params.ways, params.cores);
    Rng rng(params.seed + 100);
    for (int round = 0; round < 4; ++round) {
        std::vector<std::uint32_t> quotas;
        do {
            quotas.assign(params.cores, 1);
            for (std::uint32_t w = params.cores; w < params.ways; ++w) {
                ++quotas[rng.nextBelow(params.cores)];
            }
        } while (std::adjacent_find(quotas.begin(), quotas.end(),
                                    std::not_equal_to<>()) ==
                 quotas.end());
        mem::DramModel dram;
        UcpLlc llc(config, dram);
        UcpTestAccess::setAllocation(llc, quotas);
        ASSERT_EQ(llc.allocation(), quotas);
        ReferenceLlc model(StaticRule::Ucp, kSets, params.ways,
                           params.cores, quotas);
        SCOPED_TRACE(::testing::Message() << "round " << round);
        ASSERT_NO_FATAL_FAILURE(
            expectMatchesModel(llc, model, params, kSets, rng.next()));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StaticSchemeReferenceTest,
    ::testing::Values(FuzzParams{11, 2, 4}, FuzzParams{12, 2, 8},
                      FuzzParams{13, 3, 8}, FuzzParams{14, 4, 8},
                      FuzzParams{15, 4, 16}, FuzzParams{16, 3, 6},
                      FuzzParams{17, 2, 5}));

// ---------------------------------------------------------------------------
// Probe-set property: dynamic-energy accounting equals the RAP popcount.

TEST(CoopProperties, ProbeCountEqualsReadableWays)
{
    constexpr std::uint32_t kSets = 8;
    mem::DramModel dram;
    CooperativeLlc llc(fuzzConfig(kSets, 8, 2), dram);
    Rng rng(42);
    Cycle now = 0;
    for (int step = 0; step < 5000; ++step) {
        const auto core = static_cast<CoreId>(rng.nextBelow(2));
        const Addr tag = rng.nextBelow(6);
        const auto set = static_cast<SetId>(rng.nextBelow(kSets));
        now += 2;
        // Capture the probe set BEFORE the access: participation can
        // complete a takeover mid-access, shrinking the mask after
        // the tags were already probed.
        const auto expected = static_cast<std::uint32_t>(
            std::popcount(llc.permissions().readMask(core)));
        const LlcAccess res = llc.access(
            core, fuzzAddr(core, tag, set, 3), AccessType::Read, now);
        ASSERT_EQ(res.ways_probed, expected);
        if (step % 1000 == 999) {
            llc.epoch(now);
        }
    }
}

// ---------------------------------------------------------------------------
// Takeover termination: driving every set completes all transitions.

TEST(CoopProperties, TouchingEverySetTerminatesTransitions)
{
    constexpr std::uint32_t kSets = 16;
    mem::DramModel dram;
    LlcConfig config = fuzzConfig(kSets, 8, 2);
    config.stale_transition_cycles = 1'000'000'000; // never force
    CooperativeLlc llc(config, dram);
    Rng rng(77);
    Cycle now = 0;

    // Build skew, decide, then sweep both cores over every set.
    for (int r = 0; r < 600; ++r) {
        for (SetId s = 0; s < kSets; ++s) {
            for (Addr t = 0; t < 4; ++t) {
                llc.access(0, fuzzAddr(0, t, s, 4), AccessType::Write,
                           ++now);
            }
            llc.access(1, fuzzAddr(1, 0, s, 4), AccessType::Read, ++now);
        }
    }
    llc.epoch(++now);
    for (SetId s = 0; s < kSets; ++s) {
        llc.access(0, fuzzAddr(0, 0, s, 4), AccessType::Read, ++now);
        llc.access(1, fuzzAddr(1, 0, s, 4), AccessType::Read, ++now);
    }

    for (WayId w = 0; w < 8; ++w) {
        const WayState state = llc.permissions().state(w);
        EXPECT_TRUE(state == WayState::Steady || state == WayState::Off)
            << "way " << w;
    }
    EXPECT_EQ(llc.forcedCompletions(), 0u);
}

// ---------------------------------------------------------------------------
// Look-ahead properties over random curves and thresholds.

class LookaheadFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LookaheadFuzzTest, FeasibleAndThresholdMonotone)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 60; ++trial) {
        const std::uint32_t ways =
            4 + static_cast<std::uint32_t>(rng.nextBelow(13));
        const std::uint32_t apps =
            2 + static_cast<std::uint32_t>(rng.nextBelow(3));
        if (apps > ways) {
            continue;
        }
        std::vector<partition::AppDemand> demands;
        for (std::uint32_t a = 0; a < apps; ++a) {
            partition::AppDemand d;
            d.accesses = 500.0 + static_cast<double>(rng.nextBelow(2000));
            double misses = d.accesses;
            d.miss_curve.push_back(misses);
            for (std::uint32_t w = 0; w < ways; ++w) {
                misses -= rng.nextDouble() * d.accesses * 0.15;
                misses = std::max(misses, 0.0);
                d.miss_curve.push_back(misses);
            }
            demands.push_back(std::move(d));
        }

        // Total allocation is monotone in T only when the cache is not
        // fully contended: excluding a big app frees balance others can
        // claim. Check monotonicity on the uncontended cases, plain
        // feasibility always.
        partition::LookaheadConfig zero;
        zero.threshold = 0.0;
        const partition::Allocation base =
            partition::lookaheadPartition(demands, ways, zero);
        const bool contended = base.unallocated == 0;

        std::uint32_t prev_total = ways + 1;
        for (const double t : {0.0, 0.02, 0.05, 0.1, 0.3, 1.0}) {
            partition::LookaheadConfig config;
            config.threshold = t;
            const partition::Allocation alloc =
                partition::lookaheadPartition(demands, ways, config);
            const std::uint32_t total = std::accumulate(
                alloc.ways.begin(), alloc.ways.end(), 0u);
            ASSERT_EQ(total + alloc.unallocated, ways);
            for (const std::uint32_t w : alloc.ways) {
                ASSERT_GE(w, 1u);
            }
            if (!contended) {
                ASSERT_LE(total, prev_total);
                prev_total = total;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookaheadFuzzTest,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull,
                                           55ull));

// ---------------------------------------------------------------------------
// Miss-count monotonicity: more ways never hurt a single app (LRU).

class WaysMonotoneTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WaysMonotoneTest, FairShareMissesDropWithMoreWays)
{
    // One core under FairShare with varying total ways gets 1..N ways;
    // replaying identical traffic must give monotone misses.
    Rng seed_rng(GetParam());
    constexpr std::uint32_t kSets = 8;

    std::vector<std::pair<Addr, AccessType>> stream;
    Rng rng(seed_rng.next());
    for (int i = 0; i < 15000; ++i) {
        const Addr tag = rng.nextBelow(10);
        const auto set = static_cast<SetId>(rng.nextBelow(kSets));
        stream.emplace_back(fuzzAddr(0, tag, set, 3),
                            rng.nextBool(0.3) ? AccessType::Write
                                              : AccessType::Read);
    }

    std::uint64_t prev_misses = ~0ull;
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u}) {
        mem::DramModel dram;
        LlcConfig config = fuzzConfig(kSets, ways, 1);
        FairShareLlc llc(config, dram);
        Cycle now = 0;
        for (const auto &[addr, type] : stream) {
            llc.access(0, addr, type, ++now);
        }
        EXPECT_LE(llc.missesTotal(), prev_misses) << "ways=" << ways;
        prev_misses = llc.missesTotal();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaysMonotoneTest,
                         ::testing::Values(101ull, 202ull, 303ull));
