/**
 * @file
 * Tests for warm-up sharing: a run forked from a sibling's warmed
 * System reports exactly what it reports when it warms up itself.
 *
 *  - LLC forks: for every LLC organisation (the five schemes, banked
 *    over the mod and the xor hash, set-sampled), an LLC forked partway
 *    through a warm-up's accesses under another epoch decision
 *    continues exactly like one built under that decision from the
 *    start: the same access results, allocations, counters, energy and
 *    DRAM traffic, and utility monitors only where the decision reads
 *    them.
 *  - Twins: every run whose epoch decision reads no demands prints
 *    its twin's result (equalshare, default threshold settings).
 *  - The executor: fig11, setop scaling.spec and banked.spec at test
 *    scale through RunExecutor, at 1, 2 and 4 threads and once with
 *    the stream memo off, print the store lines executeRun() prints;
 *    every sibling set warmed up once and its other runs forked, the
 *    64-core rows' twins shared one simulation per mix, and no
 *    checkpoint outlives the batch. A demand-free run that starts
 *    first warms up as the warm key for its pending siblings, and a
 *    batch counts every sibling before any starts.
 *  - Concurrency (CI runs WarmShareConcurrency.* under TSan): two
 *    siblings starting at once, siblings forking a checkpoint while
 *    others wait, twins starting at once, and twins whose shared
 *    simulation fails.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <coopsim/experiment.hpp>

#include "api/registry.hpp"
#include "common/rng.hpp"
#include "llc/banked.hpp"
#include "llc/schemes.hpp"
#include "sampling/set_sampled.hpp"
#include "sim/stream_cache.hpp"
#include "store/result_store.hpp"

using namespace coopsim;
using namespace coopsim::sim;

namespace
{

// --------------------------------------------------------------------------
// LLC forks

/** One LLC organisation under test. */
struct Organisation
{
    const char *scheme;
    std::uint32_t banks;
    llc::SliceHashKind hash;
    /** 1-in-S set sampling; 1 = none. */
    std::uint32_t set_period;
};

std::string nameOf(const Organisation &org);

void
PrintTo(const Organisation &org, std::ostream *out)
{
    *out << nameOf(org);
}

std::string
nameOf(const Organisation &org)
{
    std::string name = org.scheme;
    if (org.banks > 1 || org.hash == llc::SliceHashKind::Xor) {
        name += org.hash == llc::SliceHashKind::Xor ? "_xor" : "_mod";
        name += std::to_string(org.banks);
    }
    if (org.set_period > 1) {
        name += "_set" + std::to_string(org.set_period);
    }
    return name;
}

/** A 4-core, 16-way, 128-set LLC with short epochs and transfers. */
llc::LlcConfig
baseConfig(const Organisation &org)
{
    llc::LlcConfig config;
    config.geometry = {128ull * 16 * 64, 16, 64};
    config.num_cores = 4;
    config.umon_sample_period = 2;
    config.stale_transition_cycles = 40'000;
    config.flush_series_bin = 2'000;
    config.seed = 11;
    config.banks = org.banks;
    config.slice_hash = org.hash;
    return config;
}

std::unique_ptr<llc::Llc>
makeLlc(const Organisation &org, const llc::LlcConfig &config,
        mem::DramModel &dram)
{
    if (org.set_period > 1) {
        return std::make_unique<sampling::SetSampledLlc>(
            config, org.set_period, dram,
            [&org, &dram](const llc::LlcConfig &inner) {
                return api::makeLlcByName(org.scheme, inner, dram);
            });
    }
    return api::makeLlcByName(org.scheme, config, dram);
}

/** Whether any bank of @p llc holds utility monitors. */
bool
monitored(const llc::Llc &llc)
{
    if (const auto *sampled =
            dynamic_cast<const sampling::SetSampledLlc *>(&llc)) {
        return monitored(sampled->inner());
    }
    if (const auto *banked = dynamic_cast<const llc::BankedLlc *>(&llc)) {
        bool any = false;
        for (std::uint32_t b = 0; b < banked->banks(); ++b) {
            any = any || monitored(banked->bank(b));
        }
        return any;
    }
    if (const auto *ucp = dynamic_cast<const llc::UcpLlc *>(&llc)) {
        return ucp->monitors().active();
    }
    if (const auto *cpe = dynamic_cast<const llc::DynamicCpeLlc *>(&llc)) {
        return cpe->monitors().active();
    }
    if (const auto *coop = dynamic_cast<const llc::CooperativeLlc *>(&llc)) {
        return coop->monitors().active();
    }
    return false;
}

/**
 * A seeded access stream over four disjoint per-core footprints of
 * different sizes, so utility curves differ and allocations move.
 */
class Traffic
{
  public:
    explicit Traffic(std::uint64_t seed) : rng_(seed) {}

    struct Access
    {
        CoreId core;
        Addr addr;
        AccessType type;
        Cycle now;
    };

    Access
    next()
    {
        now_ += 1 + rng_.nextBelow(6);
        const auto core = static_cast<CoreId>(rng_.nextBelow(4));
        const std::uint64_t blocks = 256ull << (2 * core);
        const Addr addr = (static_cast<Addr>(core + 1) << 40) |
                          (rng_.nextBelow(blocks) << 6);
        const AccessType type =
            rng_.nextBool(0.3) ? AccessType::Write : AccessType::Read;
        return {core, addr, type, now_};
    }

    Cycle now() const { return now_; }

  private:
    Rng rng_;
    Cycle now_ = 0;
};

/** Drives @p a and @p b with the same @p accesses accesses, with an
 *  epoch every @p epoch cycles, expecting identical behaviour. */
void
driveInLockstep(llc::Llc &a, llc::Llc &b, Traffic &traffic,
                std::uint32_t accesses, Cycle epoch, Cycle &next_epoch)
{
    for (std::uint32_t i = 0; i < accesses; ++i) {
        const Traffic::Access x = traffic.next();
        while (x.now >= next_epoch) {
            a.epoch(next_epoch);
            b.epoch(next_epoch);
            ASSERT_EQ(a.allocation(), b.allocation()) << "epoch at "
                                                       << next_epoch;
            ASSERT_EQ(a.poweredWays(), b.poweredWays());
            next_epoch += epoch;
        }
        const llc::LlcAccess ra = a.access(x.core, x.addr, x.type, x.now);
        const llc::LlcAccess rb = b.access(x.core, x.addr, x.type, x.now);
        ASSERT_EQ(ra.hit, rb.hit) << "access " << i;
        ASSERT_EQ(ra.ready_at, rb.ready_at) << "access " << i;
        ASSERT_EQ(ra.ways_probed, rb.ways_probed) << "access " << i;
    }
}

void
expectSameCounters(const llc::Llc &a, const llc::Llc &b,
                   const mem::DramModel &dram_a,
                   const mem::DramModel &dram_b)
{
    for (CoreId c = 0; c < 4; ++c) {
        EXPECT_EQ(a.coreStats(c).accesses.value(),
                  b.coreStats(c).accesses.value());
        EXPECT_EQ(a.coreStats(c).hits.value(), b.coreStats(c).hits.value());
        EXPECT_EQ(a.coreStats(c).writebacks.value(),
                  b.coreStats(c).writebacks.value());
    }
    const energy::EnergyTotals ea = a.energyTotals();
    const energy::EnergyTotals eb = b.energyTotals();
    EXPECT_EQ(ea.tag_nj, eb.tag_nj);
    EXPECT_EQ(ea.data_nj, eb.data_nj);
    EXPECT_EQ(ea.monitor_nj, eb.monitor_nj);
    EXPECT_EQ(ea.drain_nj, eb.drain_nj);
    EXPECT_EQ(ea.static_nj, eb.static_nj);
    EXPECT_EQ(a.avgWaysProbed(), b.avgWaysProbed());
    EXPECT_EQ(a.takeoverEvents().total(), b.takeoverEvents().total());
    EXPECT_EQ(a.transferDurations(), b.transferDurations());
    EXPECT_EQ(a.flushedLines(), b.flushedLines());
    EXPECT_EQ(a.epochsRun(), b.epochsRun());
    EXPECT_EQ(a.repartitions(), b.repartitions());
    EXPECT_EQ(a.bankConflicts(), b.bankConflicts());
    EXPECT_EQ(a.bankConflictCycles(), b.bankConflictCycles());
    EXPECT_EQ(dram_a.stats().reads.value(), dram_b.stats().reads.value());
    EXPECT_EQ(dram_a.stats().writebacks.value(),
              dram_b.stats().writebacks.value());
    EXPECT_EQ(dram_a.stats().flushes.value(),
              dram_b.stats().flushes.value());
}

class LlcForkTest : public ::testing::TestWithParam<Organisation>
{
};

TEST_P(LlcForkTest, ForkMidWarmUpContinuesAsTheVariantBuiltFromScratch)
{
    const Organisation org = GetParam();
    const llc::LlcConfig warm = baseConfig(org);

    struct Variant
    {
        partition::Partitioner partitioner;
        double threshold;
        partition::ThresholdMode mode;
    };
    const Variant variants[] = {
        {partition::Partitioner::Lookahead, 0.0,
         partition::ThresholdMode::MissRatio},
        {partition::Partitioner::Lookahead, 0.2,
         partition::ThresholdMode::PaperLiteral},
        {partition::Partitioner::GreedyUtility, 0.1,
         partition::ThresholdMode::MissRatio},
        {partition::Partitioner::EqualShare, 0.05,
         partition::ThresholdMode::MissRatio},
    };
    for (const Variant &v : variants) {
        SCOPED_TRACE(testing::Message()
                     << "partitioner " << static_cast<int>(v.partitioner)
                     << " T " << v.threshold);
        llc::LlcConfig variant = warm;
        variant.partitioner = v.partitioner;
        variant.threshold = v.threshold;
        variant.threshold_mode = v.mode;

        // The warm-up LLC runs the canonical decision; the reference
        // runs the variant's from its first access.
        mem::DramModel warm_dram;
        mem::DramModel ref_dram;
        const std::unique_ptr<llc::Llc> warmed =
            makeLlc(org, warm, warm_dram);
        const std::unique_ptr<llc::Llc> reference =
            makeLlc(org, variant, ref_dram);
        Traffic traffic(5);
        Cycle no_epoch = kCycleMax;
        driveInLockstep(*warmed, *reference, traffic, 3000, kCycleMax,
                        no_epoch);

        mem::DramModel fork_dram = warm_dram;
        const std::unique_ptr<llc::Llc> forked =
            warmed->fork(fork_dram, variant);
        ASSERT_NE(forked, nullptr);
        EXPECT_EQ(monitored(*forked), monitored(*reference));
        EXPECT_EQ(forked->config(), reference->config());

        // The rest of the warm-up, then the measurement start.
        driveInLockstep(*forked, *reference, traffic, 3000, kCycleMax,
                        no_epoch);
        forked->resetStats(traffic.now());
        reference->resetStats(traffic.now());

        // Epochs from here on: the forked decision acts for the first
        // time, and must act as the reference's does.
        Cycle next_epoch = traffic.now() + 2000;
        driveInLockstep(*forked, *reference, traffic, 60000, 4000,
                        next_epoch);
        forked->integrateStatic(next_epoch);
        reference->integrateStatic(next_epoch);
        EXPECT_GT(forked->epochsRun(), 10u);
        expectSameCounters(*forked, *reference, fork_dram, ref_dram);
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryOrganisation, LlcForkTest,
    ::testing::Values(
        Organisation{"unmanaged", 1, llc::SliceHashKind::Mod, 1},
        Organisation{"fairshare", 1, llc::SliceHashKind::Mod, 1},
        Organisation{"ucp", 1, llc::SliceHashKind::Mod, 1},
        Organisation{"cpe", 1, llc::SliceHashKind::Mod, 1},
        Organisation{"coop", 1, llc::SliceHashKind::Mod, 1},
        Organisation{"coop", 2, llc::SliceHashKind::Mod, 1},
        Organisation{"ucp", 2, llc::SliceHashKind::Xor, 1},
        Organisation{"cpe", 1, llc::SliceHashKind::Xor, 1},
        Organisation{"coop", 1, llc::SliceHashKind::Mod, 4},
        Organisation{"cpe", 2, llc::SliceHashKind::Xor, 2}),
    [](const ::testing::TestParamInfo<Organisation> &info) {
        return nameOf(info.param);
    });

TEST(LlcFork, UnforkableSchemesSayNot)
{
    // A scheme registered outside the library inherits the default.
    class Plain final : public llc::BaseLlc
    {
      public:
        Plain(const llc::LlcConfig &config, mem::DramModel &dram)
            : BaseLlc(config, dram, false)
        {
        }
        llc::LlcAccess
        access(CoreId, Addr, AccessType, Cycle now) override
        {
            return {true, now, 1};
        }
        std::vector<std::uint32_t> allocation() const override
        {
            return {};
        }
        llc::Scheme scheme() const override
        {
            return llc::Scheme::Unmanaged;
        }
    };
    mem::DramModel dram;
    const llc::LlcConfig config = baseConfig({"plain", 1,
                                              llc::SliceHashKind::Mod, 1});
    const Plain plain(config, dram);
    EXPECT_EQ(plain.fork(dram, config), nullptr);
    const llc::BankedLlc banked(
        [&] {
            llc::LlcConfig two = config;
            two.banks = 2;
            return two;
        }(),
        dram, [](const llc::LlcConfig &bank, mem::DramModel &d) {
            return std::make_unique<Plain>(bank, d);
        });
    llc::LlcConfig two = config;
    two.banks = 2;
    EXPECT_EQ(banked.fork(dram, two), nullptr);
}

// --------------------------------------------------------------------------
// Twins

/** The run @p key is the same simulation as when its decision reads no
 *  demands: equalshare with the default threshold settings. */
RunKey
twinOf(const RunKey &key)
{
    RunKey twin = key;
    const RunKey defaults;
    twin.partitioner = partition::Partitioner::EqualShare;
    twin.threshold = defaults.threshold;
    twin.threshold_mode = defaults.threshold_mode;
    return twin;
}

TEST(WarmShare, DemandFreeRunsPrintTheirTwinsResult)
{
    std::vector<RunKey> keys;
    for (const char *scheme : {"unmanaged", "fairshare", "ucp", "cpe",
                               "coop"}) {
        for (const double t : {0.0, 0.05, 0.2}) {
            for (const partition::ThresholdMode mode :
                 {partition::ThresholdMode::MissRatio,
                  partition::ThresholdMode::PaperLiteral}) {
                RunKey key;
                key.scheme = scheme;
                key.name = "G2-1";
                key.scale = RunScale::Test;
                key.partitioner = partition::Partitioner::EqualShare;
                key.threshold = t;
                key.threshold_mode = mode;
                keys.push_back(key);
            }
        }
    }
    // The 64-core row's full floor: every partitioner is equalshare.
    for (const partition::Partitioner p :
         {partition::Partitioner::Lookahead,
          partition::Partitioner::EqualShare,
          partition::Partitioner::GreedyUtility}) {
        for (const double t : {0.05, 0.2}) {
            RunKey key;
            key.name = "G64-mix1";
            key.num_cores = 64;
            key.scale = RunScale::Test;
            key.sampling = sampling::Mode::SetOp;
            key.partitioner = p;
            key.threshold = t;
            keys.push_back(key);
        }
    }

    std::unordered_map<RunKey, std::string, RunKeyHash> results;
    const auto resultOf = [&results](const RunKey &key) {
        const auto [it, fresh] = results.try_emplace(key);
        if (fresh) {
            it->second = store::formatResult(executeRun(key));
        }
        return it->second;
    };
    for (const RunKey &key : keys) {
        SCOPED_TRACE(api::formatRunKey(key));
        ASSERT_FALSE(partition::readsDemands(
            key.partitioner, key.num_cores,
            runConfig(key).llc.geometry.ways));
        EXPECT_EQ(resultOf(key), resultOf(twinOf(key)));
    }
}

// --------------------------------------------------------------------------
// The executor against executeRun()

/** The parsed spec file specs/@p name.spec at test scale. */
api::ExperimentSpec
testSpec(const std::string &name)
{
    api::ExperimentSpec spec = api::parseSpecFile(
        std::string(COOPSIM_SPEC_DIR) + "/" + name + ".spec");
    spec.scale = "test";
    return spec;
}

/** fig11, setop scaling.spec and, @p banked, banked.spec at test
 *  scale. */
std::vector<RunKey>
siblingSweeps(bool banked)
{
    api::ExperimentSpec scaling = testSpec("scaling");
    scaling.sampling = {"setop"};
    std::vector<api::ExperimentSpec> specs = {testSpec("fig11"), scaling};
    if (banked) {
        specs.push_back(testSpec("banked"));
    }
    std::vector<RunKey> keys;
    for (const api::ExperimentSpec &spec : specs) {
        const std::vector<RunKey> expanded = api::expandSpec(spec);
        keys.insert(keys.end(), expanded.begin(), expanded.end());
    }
    return keys;
}

std::string
lineOf(const RunKey &key, const RunResult &result)
{
    return api::formatRunKey(key) + "\t" + store::formatResult(result);
}

/** The plain path's store line of every sweep key, computed once. */
const std::string &
plainLine(const RunKey &key)
{
    static const std::unordered_map<RunKey, std::string, RunKeyHash>
        lines = [] {
            std::unordered_map<RunKey, std::string, RunKeyHash> out;
            for (const RunKey &k : siblingSweeps(true)) {
                out.emplace(k, lineOf(k, executeRun(k)));
            }
            return out;
        }();
    return lines.at(key);
}

/** Restores the stream memo's configuration and counters. */
struct MemoGuard
{
    StreamCache::Config saved = StreamCache::instance().config();
    ~MemoGuard()
    {
        StreamCache::instance().configure(saved);
        StreamCache::instance().clear();
        StreamCache::instance().resetStats();
    }
};

class WarmShareSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(WarmShareSweep, ForkedRunsPrintThePlainPathsStoreLines)
{
    const auto [threads, memo] = GetParam();
    // Without the memo every fork copies SyntheticStream generators;
    // banked.spec's 32-core runs add nothing to that but time.
    const std::vector<RunKey> keys = siblingSweeps(memo);

    MemoGuard guard;
    StreamCache::instance().configure({memo, 0});
    RunExecutor executor(threads);
    executor.prefetch(keys);
    for (const RunKey &key : keys) {
        ASSERT_EQ(lineOf(key, executor.run(key)), plainLine(key));
    }
    // Every sibling set warms up once and its other runs fork: fig11's
    // 14 sets of five thresholds fork 56 runs, setop scaling.spec's 18
    // sets below 64 cores 36 and banked.spec's 12 sets one each.
    EXPECT_EQ(executor.stats().forked, memo ? 104u : 92u);
    // Each 64-core mix's three partitioner runs are one simulation.
    EXPECT_EQ(executor.stats().reused, 12u);
    EXPECT_EQ(executor.stats().failed_runs, 0u);
    EXPECT_EQ(executor.checkpoints(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndMemo, WarmShareSweep,
    ::testing::Values(std::make_tuple(1u, true), std::make_tuple(2u, true),
                      std::make_tuple(4u, true),
                      std::make_tuple(4u, false)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, bool>> &info) {
        return std::to_string(std::get<0>(info.param)) + "threads_memo_" +
               (std::get<1>(info.param) ? "on" : "off");
    });

TEST(WarmShare, SoloRunsAndLoneGroupRunsDoNotFork)
{
    RunExecutor executor(2);
    const std::vector<RunKey> keys = api::expandSpec(testSpec("fig05"));
    executor.prefetch(keys);
    for (const RunKey &key : keys) {
        executor.run(key);
    }
    // fig05 sweeps schemes, not decisions: no run has a sibling.
    EXPECT_EQ(executor.stats().forked, 0u);
    EXPECT_EQ(executor.checkpoints(), 0u);
}

/** Cooperative G4-1 at test scale under @p partitioner and @p t. */
RunKey
sibling(partition::Partitioner partitioner, double t)
{
    RunKey key;
    key.scheme = "coop";
    key.name = "G4-1";
    key.num_cores = 4;
    key.scale = RunScale::Test;
    key.partitioner = partitioner;
    key.threshold = t;
    return key;
}

void
expectPlain(RunExecutor &executor, const std::vector<RunKey> &keys)
{
    for (const RunKey &key : keys) {
        EXPECT_EQ(lineOf(key, executor.run(key)),
                  lineOf(key, executeRun(key)));
    }
    EXPECT_EQ(executor.checkpoints(), 0u);
}

/** Waits until @p executor has started @p runs runs, so that a caller
 *  of run() finds nothing queued to help with: its one worker then
 *  starts the batch in queue order. */
void
awaitStarted(const RunExecutor &executor, std::uint64_t runs)
{
    while (executor.stats().simulations < runs) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

TEST(WarmShare, DemandFreeFirstSiblingWarmsUpTheWarmKey)
{
    // The equalshare run starts first while its lookahead sibling is
    // pending: it warms up as the warm key, monitors included, so the
    // lookahead run forks its copy.
    RunExecutor executor(1);
    const std::vector<RunKey> keys = {
        sibling(partition::Partitioner::EqualShare, 0.05),
        sibling(partition::Partitioner::Lookahead, 0.05)};
    executor.prefetch(keys);
    awaitStarted(executor, keys.size());
    expectPlain(executor, keys);
    EXPECT_EQ(executor.stats().forked, 1u);
}

TEST(WarmShare, ABatchCountsEverySiblingBeforeAnyStarts)
{
    // A batch whose two siblings sit far apart, on a pool whose worker
    // is idle: the first sibling starts only once the second is
    // counted, so it warms up for it as above.
    RunExecutor executor(1);
    RunKey solo;
    solo.kind = RunKey::Kind::Solo;
    solo.name = "h264ref";
    solo.num_cores = 4;
    solo.scale = RunScale::Test;
    executor.run(solo);
    std::vector<RunKey> keys(20000, solo);
    keys.front() = sibling(partition::Partitioner::EqualShare, 0.05);
    keys.back() = sibling(partition::Partitioner::Lookahead, 0.05);
    executor.prefetch(keys);
    awaitStarted(executor, 3);
    expectPlain(executor, {keys.front(), keys.back()});
    EXPECT_EQ(executor.stats().forked, 1u);
}

// --------------------------------------------------------------------------
// Concurrency (TSan)

TEST(WarmShareConcurrency, TwoSiblingsStartingAtOnce)
{
    // Two workers pick both siblings up together: the second to start
    // waits for the first's warm-up, which holds the monitors
    // lookahead reads, and forks it.
    RunExecutor executor(2);
    const std::vector<RunKey> keys = {
        sibling(partition::Partitioner::Lookahead, 0.05),
        sibling(partition::Partitioner::EqualShare, 0.05)};
    executor.prefetch(keys);
    expectPlain(executor, keys);
    EXPECT_EQ(executor.stats().forked, 1u);
}

TEST(WarmShareConcurrency, SiblingsForkWhileOthersPublish)
{
    // Three workers start three siblings at once: the first to start
    // warms up, and the other two wait for it and fork its copy, as do
    // the queued rest on free workers. The equalshare twins fork once
    // and share that run's result.
    RunExecutor executor(3);
    std::vector<RunKey> keys;
    for (const partition::Partitioner p :
         {partition::Partitioner::Lookahead,
          partition::Partitioner::GreedyUtility,
          partition::Partitioner::EqualShare}) {
        for (const double t : {0.0, 0.05, 0.2}) {
            keys.push_back(sibling(p, t));
        }
    }
    executor.prefetch(keys);
    expectPlain(executor, keys);
    EXPECT_EQ(executor.stats().forked, 6u);
    EXPECT_EQ(executor.stats().reused, 2u);
}

TEST(WarmShareConcurrency, TwinsStartingAtOnceShareOneSimulation)
{
    // Three workers start three equalshare runs at once: the first to
    // start simulates, and the other two wait for its result.
    RunExecutor executor(3);
    const std::vector<RunKey> keys = {
        sibling(partition::Partitioner::EqualShare, 0.0),
        sibling(partition::Partitioner::EqualShare, 0.05),
        sibling(partition::Partitioner::EqualShare, 0.2)};
    executor.prefetch(keys);
    expectPlain(executor, keys);
    EXPECT_EQ(executor.stats().simulations, 3u);
    EXPECT_EQ(executor.stats().reused, 2u);
}

/** A scheme whose first epoch throws, partway through its run. */
class ThrowingLlc final : public llc::BaseLlc
{
  public:
    ThrowingLlc(const llc::LlcConfig &config, mem::DramModel &dram)
        : BaseLlc(config, dram, false)
    {
    }
    llc::LlcAccess
    access(CoreId, Addr, AccessType, Cycle now) override
    {
        return {true, now, 1};
    }
    void epoch(Cycle) override
    {
        throw std::runtime_error("injected epoch failure");
    }
    std::vector<std::uint32_t> allocation() const override { return {}; }
    llc::Scheme scheme() const override { return llc::Scheme::Unmanaged; }
};

TEST(WarmShareConcurrency, EveryTwinOfAFailedRunFailsUnderItsOwnKey)
{
    if (api::schemeRegistry().find("throwing") == nullptr) {
        api::registerScheme("throwing", "Throwing",
                            [](const llc::LlcConfig &config,
                               mem::DramModel &dram) {
                                return std::make_unique<ThrowingLlc>(
                                    config, dram);
                            });
    }
    RunExecutor executor(3);
    std::vector<RunKey> keys;
    for (const double t : {0.0, 0.05, 0.2}) {
        keys.push_back(sibling(partition::Partitioner::EqualShare, t));
        keys.back().scheme = "throwing";
    }
    executor.prefetch(keys);
    for (const RunKey &key : keys) {
        try {
            executor.run(key);
            ADD_FAILURE() << "no failure for " << api::formatRunKey(key);
        } catch (const RunFailure &failure) {
            EXPECT_EQ(failure.key(), key);
            EXPECT_NE(std::string(failure.what()).find("injected"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(executor.stats().failed_runs, 3u);
    EXPECT_EQ(executor.stats().reused, 0u);
    EXPECT_EQ(executor.checkpoints(), 0u);
}

} // namespace
