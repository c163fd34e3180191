/**
 * @file
 * Tests for the banked LLC organisation:
 *
 *  - differential bit-identity: forcing one bank through the
 *    BankedLlc wrapper (the xor hash on a one-bank row) reproduces
 *    the monolithic store::formatResult() line byte-for-byte over the
 *    fig05-representative sweep (groups x {coop, ucp} x partitioners);
 *  - the 32/64-core topology rows carry the banked geometry (2/4
 *    slices, 64 ways, 1 MB/core) and reject invalid shapes loudly;
 *  - a many-core banked sweep is bit-identical serial vs parallel and
 *    warm-store vs cold, mirroring the 8-core determinism checks;
 *  - the slice-hash spec axis round-trips through
 *    formatSpec/parseSpec and formatRunKey/parseRunKey, and
 *    pre-banking key and result lines still load;
 *  - bank-conflict counters surface in RunResult and its store line;
 *  - coreStats(c) of a 2- and a 4-bank LLC is the per-field sum of
 *    the banks' counters for c, whatever order the cores are queried.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <coopsim/experiment.hpp>

#include "common/rng.hpp"
#include "llc/banked.hpp"
#include "trace/workloads.hpp"

using namespace coopsim;
using namespace coopsim::sim;

// ---------------------------------------------------------------------------
// Differential: one forced bank vs the monolithic scheme

namespace
{

/** The fig05-representative sweep: a Table 4 group under both managed
 *  schemes across every partitioner. */
std::vector<RunKey>
fig05Sweep()
{
    api::ExperimentSpec spec;
    spec.name = "banked-diff";
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"coop", "ucp"};
    spec.groups = {"G2-10"};
    spec.partitioners = {"lookahead", "equalshare", "greedy"};
    spec.scale = "test";
    return api::expandSpec(spec);
}

/** The 32/64-core smoke sweep over the banked topology rows. */
std::vector<RunKey>
manyCoreSweep()
{
    api::ExperimentSpec spec;
    spec.name = "banked-many";
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"coop"};
    spec.groups = {"G32-cpu1", "G64-cpu1"};
    spec.cores = {32, 64};
    spec.partitioners = {"lookahead", "equalshare"};
    spec.scale = "test";
    return api::expandSpec(spec);
}

} // namespace

TEST(Banked, ForcedSingleBankIsBitIdenticalToMonolithic)
{
    // On the one-bank 2-core row, mod routes around the wrapper
    // entirely (the exact pre-banking code path); xor builds a
    // BankedLlc whose single bank owns the full geometry, forwards
    // `now` unchanged and keeps the conflict model off. The two must
    // produce byte-equal result lines — the wrapper adds bookkeeping,
    // not behaviour.
    const std::vector<RunKey> keys = fig05Sweep();
    ASSERT_EQ(keys.size(), 6u);

    RunExecutor executor(4);
    for (RunKey key : keys) {
        const std::string monolithic =
            store::formatResult(executor.run(key));
        key.slice_hash = llc::SliceHashKind::Xor;
        EXPECT_EQ(monolithic, store::formatResult(executor.run(key)))
            << api::formatRunKey(key);
    }
}

// ---------------------------------------------------------------------------
// Topology rows and geometry validation

TEST(Banked, ManyCoreRowsCarryTheBankedGeometry)
{
    const SystemConfig c32 =
        makeSystemConfig(32, "coop", RunScale::Paper);
    EXPECT_EQ(c32.num_cores, 32u);
    EXPECT_EQ(c32.llc.geometry.size_bytes, 32ull << 20);
    EXPECT_EQ(c32.llc.geometry.ways, 64u);
    EXPECT_EQ(c32.llc.hit_latency, 35u);
    EXPECT_EQ(c32.llc.banks, 2u);

    const SystemConfig c64 =
        makeSystemConfig(64, "coop", RunScale::Paper);
    EXPECT_EQ(c64.num_cores, 64u);
    EXPECT_EQ(c64.llc.geometry.size_bytes, 64ull << 20);
    EXPECT_EQ(c64.llc.geometry.ways, 64u);
    EXPECT_EQ(c64.llc.hit_latency, 40u);
    EXPECT_EQ(c64.llc.banks, 4u);

    // Rows through 16 cores stay monolithic, so every stored
    // pre-banking result keeps describing the same machine.
    EXPECT_EQ(makeSystemConfig(16, "coop", RunScale::Paper).llc.banks,
              1u);
}

TEST(Banked, NonPowerOfTwoBankCountsAreFatalWithDiagnostics)
{
    setThrowOnFatal(true);
    llc::LlcConfig config;
    config.geometry = {2ull << 20, 8, 64};
    config.num_cores = 2;
    config.banks = 3;
    mem::DramModel dram{mem::DramConfig{}};
    try {
        api::makeLlcByName("unmanaged", config, dram);
        FAIL() << "expected a fatal error";
    } catch (const FatalError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("3 banks"), std::string::npos)
            << message;
        EXPECT_NE(message.find("power of two"), std::string::npos)
            << message;
    }
    setThrowOnFatal(false);
}

TEST(Banked, PerSliceWaysStillCoverTheSharingCores)
{
    // The ways >= cores guard is per slice: every row in the table,
    // banked or not, must let way partitioning give each core a way in
    // every slice it can reach.
    for (const std::uint32_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
        const SystemConfig c =
            makeSystemConfig(n, "coop", RunScale::Paper);
        EXPECT_GE(c.llc.geometry.ways, n) << n << " cores";
    }
}

// ---------------------------------------------------------------------------
// Many-core determinism: serial vs parallel, warm store vs cold

TEST(Banked, ManyCoreSweepIsBitIdenticalSerialVsParallel)
{
    const std::vector<RunKey> keys = manyCoreSweep();
    ASSERT_EQ(keys.size(), 4u);

    RunExecutor serial(1);
    std::vector<std::string> serial_lines;
    for (const RunKey &key : keys) {
        serial_lines.push_back(store::formatResult(serial.run(key)));
    }

    RunExecutor parallel(4);
    parallel.prefetch(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(serial_lines[i],
                  store::formatResult(parallel.run(keys[i])));
    }
}

TEST(Banked, ManyCoreWarmStoreRerunIsBitIdenticalAndRunsNothing)
{
    const std::vector<RunKey> keys = manyCoreSweep();

    auto result_store = std::make_shared<store::ResultStore>();
    std::vector<std::string> cold_lines;
    {
        RunExecutor cold(2);
        cold.attachStore(result_store);
        cold.prefetch(keys);
        for (const RunKey &key : keys) {
            cold_lines.push_back(store::formatResult(cold.run(key)));
        }
        EXPECT_EQ(cold.stats().simulations, keys.size());
    }
    EXPECT_EQ(result_store->size(), keys.size());

    RunExecutor warm(2);
    warm.attachStore(result_store);
    warm.prefetch(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(cold_lines[i],
                  store::formatResult(warm.run(keys[i])));
    }
    EXPECT_EQ(warm.stats().simulations, 0u);
    EXPECT_EQ(warm.stats().store_hits, keys.size());
    EXPECT_EQ(warm.activeWorkers(), 0u);
}

// ---------------------------------------------------------------------------
// Spec axes and encodings

TEST(Banked, SpecAxesRoundTripAndExpand)
{
    api::ExperimentSpec spec;
    spec.name = "bank-axes";
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"coop"};
    spec.groups = {"G8-cpu1"};
    spec.partitioners = {"lookahead"};
    spec.slice_hashes = {"mod", "xor"};
    spec.scale = "test";
    EXPECT_EQ(api::parseSpec(api::formatSpec(spec)), spec);

    const std::vector<RunKey> keys = api::expandSpec(spec);
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0].slice_hash, llc::SliceHashKind::Mod);
    EXPECT_EQ(keys[1].slice_hash, llc::SliceHashKind::Xor);
}

TEST(Banked, RunKeyEncodingCarriesBankFieldsOnlyWhenNonDefault)
{
    std::vector<RunKey> keys = fig05Sweep();
    RunKey key = keys.front();

    // Default banking: the key line is byte-identical to the
    // pre-banking encoding (no banks / slice-hash fields), so every
    // existing store keeps addressing the same runs.
    const std::string default_line = api::formatRunKey(key);
    EXPECT_EQ(default_line.find("banks="), std::string::npos)
        << default_line;
    EXPECT_EQ(default_line.find("slice-hash="), std::string::npos)
        << default_line;
    EXPECT_EQ(api::parseRunKey(default_line), key);

    key.slice_hash = llc::SliceHashKind::Xor;
    const std::string banked_line = api::formatRunKey(key);
    EXPECT_NE(banked_line.find(" banks=0 slice-hash=xor"),
              std::string::npos)
        << banked_line;
    EXPECT_EQ(api::parseRunKey(banked_line), key);
}

TEST(Banked, PreBankingResultLinesStillParse)
{
    // Result lines written before the bank counters existed end at the
    // per-app block; they must load with zeroed conflict counters.
    RunExecutor executor(2);
    const RunKey key = fig05Sweep().front();
    const RunResult &result = executor.run(key);
    std::string line = store::formatResult(result);

    const std::string suffix = " bank_conflicts=0 bank_conflict_cycles=0";
    ASSERT_NE(line.find(suffix), std::string::npos) << line;
    const std::string old_line =
        line.substr(0, line.size() - suffix.size());

    RunResult reparsed;
    ASSERT_TRUE(store::tryParseResult(old_line, reparsed)) << old_line;
    EXPECT_EQ(store::formatResult(reparsed), line);

    // A truncated counter pair (one field without the other) is
    // corrupt, not legacy.
    RunResult rejected;
    EXPECT_FALSE(store::tryParseResult(old_line + " bank_conflicts=5",
                                       rejected));
}

TEST(Banked, CoreStatsMergeEachCoreAcrossBanksInAnyQueryOrder)
{
    // coreStats(c) refreshes only core c's merged slot, so a query
    // order that interleaves cores must still give every core the sum
    // of its per-bank counters.
    for (const std::uint32_t banks : {2u, 4u}) {
        const std::uint32_t n = 8;
        SystemConfig config = makeSystemConfig(n, "coop", RunScale::Test);
        config.llc.banks = banks;
        config.insts_per_app = 100'000;
        System system(config,
                      trace::groupProfiles(trace::groupByName("G8-mix1")));
        system.run();
        const auto &banked =
            dynamic_cast<const llc::BankedLlc &>(system.llc());
        ASSERT_EQ(banked.banks(), banks);

        std::vector<CoreId> order(n);
        for (CoreId c = 0; c < n; ++c) {
            order[c] = c;
        }
        Rng rng(banks);
        for (int round = 0; round < 3; ++round) {
            for (std::size_t i = n - 1; i > 0; --i) {
                std::swap(order[i], order[rng.nextBelow(i + 1)]);
            }
            for (const CoreId c : order) {
                std::uint64_t accesses = 0;
                std::uint64_t hits = 0;
                std::uint64_t misses = 0;
                std::uint64_t writebacks = 0;
                for (std::uint32_t b = 0; b < banks; ++b) {
                    const llc::CoreLlcStats &bs =
                        banked.bank(b).coreStats(c);
                    accesses += bs.accesses.value();
                    hits += bs.hits.value();
                    misses += bs.misses.value();
                    writebacks += bs.writebacks.value();
                }
                const llc::CoreLlcStats &merged = banked.coreStats(c);
                EXPECT_GT(merged.accesses.value(), 0u) << "core " << c;
                EXPECT_EQ(merged.accesses.value(), accesses) << "core " << c;
                EXPECT_EQ(merged.hits.value(), hits) << "core " << c;
                EXPECT_EQ(merged.misses.value(), misses) << "core " << c;
                EXPECT_EQ(merged.writebacks.value(), writebacks)
                    << "core " << c;
            }
        }
    }
}

TEST(Banked, ConflictCountersSurfaceInResultsAndStoreLines)
{
    // 32 cores hammering 2 slices through a 2-cycle occupancy window
    // must collide; the counters flow RunResult -> store line.
    RunExecutor executor(2);
    RunKey key = manyCoreSweep().front();
    ASSERT_EQ(key.num_cores, 32u);
    const RunResult &banked = executor.run(key);
    EXPECT_GT(banked.bank_conflicts, 0u);
    EXPECT_GE(banked.bank_conflict_cycles, banked.bank_conflicts);
    const std::string line = store::formatResult(banked);
    EXPECT_NE(line.find("bank_conflicts="), std::string::npos) << line;

    // The monolithic path never reports conflicts.
    const RunResult &mono = executor.run(fig05Sweep().front());
    EXPECT_EQ(mono.bank_conflicts, 0u);
    EXPECT_EQ(mono.bank_conflict_cycles, 0u);
}
