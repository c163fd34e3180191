/**
 * @file
 * Tests for the parallel run executor and the bit-scan hot paths:
 *
 *  - the mask bit-scan implementations of SetAssocCache
 *    lookup/victim/validCount/ownedCount/lruValidWay agree with a
 *    straightforward linear-scan reference on random cache states and
 *    random masks;
 *  - a multi-dimensional sweep produces bit-identical RunResults on a
 *    1-thread and an N-thread executor (determinism under
 *    parallelism);
 *  - RunKey identity, memoisation, and the argument parsers.
 */

#include <gtest/gtest.h>

#include <coopsim/experiment.hpp>

#include "cache/cache.hpp"
#include "common/rng.hpp"

using namespace coopsim;
using namespace coopsim::sim;

namespace
{

// --------------------------------------------------------------------------
// Linear-scan reference implementations (the pre-bit-scan semantics).

cache::LookupResult
refLookup(const cache::SetAssocCache &c, Addr addr, cache::WayMask mask)
{
    const SetId set = c.slicer().set(addr);
    const Addr tag = c.slicer().tag(addr);
    for (std::uint32_t w = 0; w < c.ways(); ++w) {
        if (!((mask >> w) & 1)) {
            continue;
        }
        const cache::CacheBlock &blk = c.block(set, w);
        if (blk.valid && blk.tag == tag) {
            return {true, w};
        }
    }
    return {false, kNoWay};
}

std::uint32_t
refValidCount(const cache::SetAssocCache &c, SetId set,
              cache::WayMask mask)
{
    std::uint32_t count = 0;
    for (std::uint32_t w = 0; w < c.ways(); ++w) {
        if (((mask >> w) & 1) && c.block(set, w).valid) {
            ++count;
        }
    }
    return count;
}

std::uint32_t
refOwnedCount(const cache::SetAssocCache &c, SetId set,
              cache::WayMask mask, CoreId core)
{
    std::uint32_t count = 0;
    for (std::uint32_t w = 0; w < c.ways(); ++w) {
        const cache::CacheBlock &blk = c.block(set, w);
        if (((mask >> w) & 1) && blk.valid && blk.owner == core) {
            ++count;
        }
    }
    return count;
}

WayId
refLruValidWay(const cache::SetAssocCache &c, SetId set,
               cache::WayMask mask)
{
    WayId best = kNoWay;
    std::uint64_t best_lru = 0;
    for (std::uint32_t w = 0; w < c.ways(); ++w) {
        const cache::CacheBlock &blk = c.block(set, w);
        if (!((mask >> w) & 1) || !blk.valid) {
            continue;
        }
        if (best == kNoWay || blk.lru < best_lru) {
            best = w;
            best_lru = blk.lru;
        }
    }
    return best;
}

/** Victim under LRU policy: first invalid way, else the LRU way. */
WayId
refLruVictim(const cache::SetAssocCache &c, SetId set,
             cache::WayMask mask)
{
    for (std::uint32_t w = 0; w < c.ways(); ++w) {
        if (((mask >> w) & 1) && !c.block(set, w).valid) {
            return w;
        }
    }
    return refLruValidWay(c, set, mask);
}

} // namespace

TEST(BitScan, LowestWayMatchesLinearScan)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto mask = static_cast<cache::WayMask>(rng.next());
        if (mask == 0) {
            continue;
        }
        std::uint32_t linear = 0;
        while (!((mask >> linear) & 1)) {
            ++linear;
        }
        EXPECT_EQ(cache::lowestWay(mask), linear);
    }
}

TEST(BitScan, MaskedOpsMatchLinearReferenceOnRandomStates)
{
    constexpr std::uint32_t kWays = 16;
    constexpr std::uint32_t kSets = 64;
    cache::SetAssocCache c({kSets * kWays * 64ull, kWays, 64},
                           cache::ReplPolicy::Lru);
    const cache::WayMask full = cache::fullMask(kWays);
    Rng rng(12345);

    for (int step = 0; step < 5000; ++step) {
        // Mutate: insert a random tag (with random owner/dirty) or
        // invalidate, keeping plenty of both valid and invalid blocks.
        const auto set = static_cast<SetId>(rng.nextBelow(kSets));
        const auto way = static_cast<WayId>(rng.nextBelow(kWays));
        if (rng.nextBelow(10) < 7) {
            const Addr addr = c.slicer().compose(rng.nextBelow(512), set);
            c.insert(addr, set, way,
                     static_cast<CoreId>(rng.nextBelow(4)),
                     rng.nextBelow(2) == 0);
        } else {
            c.invalidate(set, way);
        }
        if (rng.nextBelow(4) == 0) {
            c.touch(set, static_cast<WayId>(rng.nextBelow(kWays)));
        }

        // Verify every masked operation against the reference.
        cache::WayMask mask = rng.next() & full;
        if (mask == 0) {
            mask = full;
        }
        const SetId qset = static_cast<SetId>(rng.nextBelow(kSets));
        const Addr qaddr =
            c.slicer().compose(rng.nextBelow(512), qset);

        const auto got = c.lookup(qaddr, mask);
        const auto want = refLookup(c, qaddr, mask);
        EXPECT_EQ(got.hit, want.hit);
        EXPECT_EQ(got.way, want.way);

        EXPECT_EQ(c.validCount(qset, mask), refValidCount(c, qset, mask));
        const auto core = static_cast<CoreId>(rng.nextBelow(4));
        EXPECT_EQ(c.ownedCount(qset, mask, core),
                  refOwnedCount(c, qset, mask, core));
        EXPECT_EQ(c.lruValidWay(qset, mask),
                  refLruValidWay(c, qset, mask));
        if (c.validCount(qset, mask) > 0 || mask != 0) {
            EXPECT_EQ(c.victim(qset, mask), refLruVictim(c, qset, mask));
        }
    }
}

namespace
{

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].name, b.apps[i].name);
        EXPECT_EQ(a.apps[i].ipc, b.apps[i].ipc);
        EXPECT_EQ(a.apps[i].insts, b.apps[i].insts);
        EXPECT_EQ(a.apps[i].cycles, b.apps[i].cycles);
        EXPECT_EQ(a.apps[i].llc_accesses, b.apps[i].llc_accesses);
        EXPECT_EQ(a.apps[i].llc_hits, b.apps[i].llc_hits);
        EXPECT_EQ(a.apps[i].llc_misses, b.apps[i].llc_misses);
        EXPECT_EQ(a.apps[i].mpki, b.apps[i].mpki);
    }
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.dynamic_energy_nj, b.dynamic_energy_nj);
    EXPECT_EQ(a.data_energy_nj, b.data_energy_nj);
    EXPECT_EQ(a.static_energy_nj, b.static_energy_nj);
    EXPECT_EQ(a.avg_ways_probed, b.avg_ways_probed);
    EXPECT_EQ(a.donor_hits, b.donor_hits);
    EXPECT_EQ(a.donor_misses, b.donor_misses);
    EXPECT_EQ(a.recipient_hits, b.recipient_hits);
    EXPECT_EQ(a.recipient_misses, b.recipient_misses);
    EXPECT_EQ(a.avg_transfer_cycles, b.avg_transfer_cycles);
    EXPECT_EQ(a.completed_transfers, b.completed_transfers);
    EXPECT_EQ(a.flushed_lines, b.flushed_lines);
    EXPECT_EQ(a.repartitions, b.repartitions);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.flush_series, b.flush_series);
    EXPECT_EQ(a.flush_series_bin, b.flush_series_bin);
    EXPECT_EQ(a.dram_reads, b.dram_reads);
    EXPECT_EQ(a.dram_writebacks, b.dram_writebacks);
    EXPECT_EQ(a.dram_flushes, b.dram_flushes);
}

/** A test-scale spec with one fairshare cell on G2-10. */
api::ExperimentSpec
testSpec()
{
    api::ExperimentSpec spec;
    spec.layout = "none";
    spec.schemes = {"fairshare"};
    spec.groups = {"G2-10"};
    spec.scale = "test";
    return spec;
}

/** The 4-dimensional sweep the determinism test runs: scheme x group
 *  x threshold x seed, plus each group's solo baselines. */
std::vector<RunKey>
sweepKeys()
{
    api::ExperimentSpec spec = testSpec();
    spec.schemes = {"fairshare", "ucp", "cpe", "coop"};
    spec.groups = {"G2-10", "G2-11", "G4-3"};
    spec.thresholds = {0.0, 0.05};
    spec.seeds = {42, 777};
    return api::expandSpec(spec);
}

} // namespace

TEST(Executor, ParallelSweepIsBitIdenticalToSerial)
{
    const std::vector<RunKey> keys = sweepKeys();

    // Serial: a dedicated 1-worker executor, results collected in
    // submission order.
    RunExecutor serial(1);
    std::vector<RunResult> serial_results;
    serial_results.reserve(keys.size());
    for (const RunKey &key : keys) {
        serial_results.push_back(serial.run(key));
    }

    // Parallel: 4 workers, the whole sweep enqueued up front and
    // collected afterwards (the bench pattern).
    RunExecutor parallel(4);
    parallel.prefetch(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        expectIdentical(serial_results[i], parallel.run(keys[i]));
    }
}

TEST(Executor, MemoisesByKeyIdentity)
{
    RunExecutor executor(2);
    const auto &group = trace::groupByName("G2-10");
    const RunKey key = api::groupRunKey(testSpec(), group);
    const RunResult &a = executor.run(key);
    const RunResult &b = executor.run(key);
    EXPECT_EQ(&a, &b); // same cached object

    api::Cell other;
    other.seed = 7;
    const RunResult &c =
        executor.run(api::groupRunKey(testSpec(), group, other));
    EXPECT_NE(&a, &c);
}

TEST(Executor, SetThreadsKeepsPendingWork)
{
    RunExecutor executor(1);
    const std::vector<RunKey> keys = sweepKeys();
    executor.prefetch({keys.begin(), keys.begin() + 4});
    executor.setThreads(3);
    EXPECT_EQ(executor.threads(), 3u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_FALSE(executor.run(keys[i]).apps.empty());
    }
}

TEST(Executor, RunKeyHashSpreadsAndEqualityHolds)
{
    const RunKey a =
        api::groupRunKey(testSpec(), trace::groupByName("G2-10"));
    RunKey b = a;
    EXPECT_EQ(a, b);
    EXPECT_EQ(RunKeyHash{}(a), RunKeyHash{}(b));
    b.seed ^= 1;
    EXPECT_NE(a, b);
    EXPECT_NE(RunKeyHash{}(a), RunKeyHash{}(b));
}

TEST(Cli, ParseCliAcceptsBenchScaleAndRejectsUnknown)
{
    const char *bench[] = {"bench", "--scale=bench"};
    EXPECT_EQ(api::parseCli(2, const_cast<char **>(bench),
                            api::kBenchFlags, nullptr)
                  .scale,
              RunScale::Bench);

    setThrowOnFatal(true);
    const char *bad[] = {"bench", "--scale=warp9"};
    EXPECT_THROW(api::parseCli(2, const_cast<char **>(bad),
                               api::kBenchFlags, nullptr),
                 FatalError);
    setThrowOnFatal(false);
}

TEST(Cli, ParseCliThreadsParsesAndValidates)
{
    const char *none[] = {"bench"};
    EXPECT_EQ(api::parseCli(1, const_cast<char **>(none),
                            api::kBenchFlags, nullptr)
                  .threads,
              0u);
    const char *eight[] = {"bench", "--threads=8"};
    EXPECT_EQ(api::parseCli(2, const_cast<char **>(eight),
                            api::kBenchFlags, nullptr)
                  .threads,
              8u);

    setThrowOnFatal(true);
    const char *bad[] = {"bench", "--threads=banana"};
    EXPECT_THROW(api::parseCli(2, const_cast<char **>(bad),
                               api::kBenchFlags, nullptr),
                 FatalError);
    const char *zero[] = {"bench", "--threads=0"};
    EXPECT_THROW(api::parseCli(2, const_cast<char **>(zero),
                               api::kBenchFlags, nullptr),
                 FatalError);
    setThrowOnFatal(false);
}
