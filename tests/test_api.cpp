/**
 * @file
 * Tests for the declarative experiment API (src/api/):
 *
 *  - string-keyed registry lookup, unknown-name diagnostics and
 *    duplicate rejection;
 *  - ExperimentSpec -> RunKey cross-product expansion (counts, solo
 *    deduplication, solos axis) and the one group/solo key rule every
 *    rendered cell reads through;
 *  - canonical text encoding round-trips for specs and RunKeys
 *    (parse(format(x)) == x, including non-representable decimals),
 *    with out-of-range 32-bit fields rejected, not wrapped;
 *  - every shipped spec file parses, round-trips and expands;
 *  - the unified CLI parser (uniform unknown-flag rejection);
 *  - drained-executor clear();
 *  - a custom scheme registered by name running end-to-end through
 *    the executor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include <coopsim/experiment.hpp>

#include "llc/schemes.hpp"
#include "sim/metrics.hpp"
#include "tracefile/trace_workloads.hpp"

using namespace coopsim;
using namespace coopsim::api;

namespace
{

/** A spec that resolves quickly at test scale. */
ExperimentSpec
tinySpec()
{
    ExperimentSpec spec;
    spec.name = "tiny";
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"fairshare"};
    spec.groups = {"G2-10"};
    spec.scale = "test";
    return spec;
}

} // namespace

// ---------------------------------------------------------------------------
// Registries

TEST(Registry, BuiltinSchemesAreRegisteredInLegendOrder)
{
    const std::vector<std::string> names = schemeRegistry().names();
    ASSERT_GE(names.size(), 5u);
    EXPECT_EQ(names[0], "unmanaged");
    EXPECT_EQ(names[1], "fairshare");
    EXPECT_EQ(names[2], "ucp");
    EXPECT_EQ(names[3], "cpe");
    EXPECT_EQ(names[4], "coop");
    EXPECT_EQ(schemeLabel("coop"), "Cooperative");
    EXPECT_EQ(schemeLabel("cpe"), "DynamicCPE");
}

TEST(Registry, UnknownNamesAreFatalWithDiagnostics)
{
    setThrowOnFatal(true);
    EXPECT_THROW(schemeRegistry().get("co-op"), FatalError);
    EXPECT_THROW(replPolicyRegistry().get("plru"), FatalError);
    EXPECT_THROW(gatingModeRegistry().get("clockgate"), FatalError);
    EXPECT_THROW(thresholdModeRegistry().get("exact"), FatalError);
    EXPECT_THROW(scaleRegistry().get("huge"), FatalError);
    EXPECT_THROW(workloadRegistry().get("G3-1"), FatalError);
    EXPECT_THROW(metricRegistry().get("latency"), FatalError);
    setThrowOnFatal(false);
    EXPECT_EQ(schemeRegistry().find("co-op"), nullptr);
    EXPECT_TRUE(schemeRegistry().contains("ucp"));
}

TEST(Registry, DuplicateRegistrationIsFatal)
{
    setThrowOnFatal(true);
    EXPECT_THROW(registerScheme("coop", "Duplicate",
                                [](const llc::LlcConfig &config,
                                   mem::DramModel &dram) {
                                    return llc::makeLlc(
                                        llc::Scheme::Cooperative,
                                        config, dram);
                                }),
                 FatalError);
    setThrowOnFatal(false);
}

TEST(Registry, EnumKeysRoundTrip)
{
    EXPECT_EQ(replPolicyKeyOf(cache::ReplPolicy::Random), "random");
    EXPECT_EQ(gatingModeKeyOf(llc::GatingMode::Drowsy), "drowsy");
    EXPECT_EQ(thresholdModeKeyOf(
                  partition::ThresholdMode::PaperLiteral),
              "paperliteral");
    EXPECT_EQ(scaleKeyOf(sim::RunScale::Paper), "paper");
    EXPECT_EQ(replPolicyRegistry().get("mru"), cache::ReplPolicy::Mru);
}

TEST(Registry, WorkloadGlobsResolve)
{
    EXPECT_EQ(resolveWorkloads("G2-*").size(), 14u);
    EXPECT_EQ(resolveWorkloads("G4-*").size(), 14u);
    const auto exact = resolveWorkloads("G4-7");
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_EQ(exact[0].name, "G4-7");
    setThrowOnFatal(true);
    EXPECT_THROW(resolveWorkloads("G9-*"), FatalError);
    setThrowOnFatal(false);
}

// ---------------------------------------------------------------------------
// Spec expansion

TEST(Spec, ExpandsTheCrossProductAndDedupesSolos)
{
    ExperimentSpec spec;
    spec.layout = "none";
    spec.schemes = {"fairshare", "coop"};
    // G2-10 = {sjeng, calculix}, G2-11 = {sjeng, xalan}: three
    // distinct apps, one shared.
    spec.groups = {"G2-10", "G2-11"};
    spec.thresholds = {0.0, 0.05};
    spec.seeds = {1, 2};
    spec.scale = "test";

    const std::vector<sim::RunKey> keys = expandSpec(spec);
    std::size_t group_keys = 0;
    std::size_t solo_keys = 0;
    for (const sim::RunKey &key : keys) {
        (key.kind == sim::RunKey::Kind::Group ? group_keys
                                              : solo_keys)++;
    }
    // 2 groups x 2 schemes x 2 thresholds x 2 seeds.
    EXPECT_EQ(group_keys, 16u);
    // 3 distinct (app, cores) pairs x 2 seeds; the threshold axis is
    // normalised away for solos.
    EXPECT_EQ(solo_keys, 6u);
}

TEST(Spec, SolosAxisExpandsWildcardAtSoloCores)
{
    ExperimentSpec spec = tinySpec();
    spec.schemes = {};
    spec.groups = {};
    spec.solos = {"*"};
    spec.solo_cores = 4;
    const std::vector<sim::RunKey> keys = expandSpec(spec);
    EXPECT_EQ(keys.size(), trace::allSpecApps().size());
    for (const sim::RunKey &key : keys) {
        EXPECT_EQ(key.kind, sim::RunKey::Kind::Solo);
        EXPECT_EQ(key.num_cores, 4u);
        EXPECT_EQ(key.scheme, "unmanaged");
    }
}

TEST(Spec, EveryCellAndBaselineReadIsAPrefetchedKey)
{
    // G2-1 = {soplex, namd}, swept over every scheme-only axis plus
    // two sampling modes and two seeds.
    ExperimentSpec spec;
    spec.layout = "none";
    spec.groups = {"G2-1"};
    spec.thresholds = {0.0, 0.05};
    spec.threshold_modes = {"missratio", "paperliteral"};
    spec.partitioners = {"lookahead", "equalshare"};
    spec.gating = {"gatedvdd", "drowsy"};
    spec.sampling = {"exact", "setop"};
    spec.seeds = {1, 2};
    spec.scale = "test";
    const ExperimentResults results(spec);
    const std::vector<sim::RunKey> &keys = results.keys();
    const std::unordered_set<sim::RunKey, sim::RunKeyHash> prefetched(
        keys.begin(), keys.end());
    ASSERT_EQ(prefetched.size(), keys.size());

    // Scheme-only axes never split a solo: apps x sampling x seeds.
    EXPECT_EQ(std::count_if(keys.begin(), keys.end(),
                            [](const sim::RunKey &key) {
                                return key.kind ==
                                       sim::RunKey::Kind::Solo;
                            }),
              2 * 2 * 2);

    // Rendering never simulates a key expandSpec did not prefetch.
    std::size_t cells = 0;
    Cell cell;
    cell.group = "G2-1";
    for (const double threshold : spec.thresholds) {
        cell.threshold = threshold;
        for (const std::string &tmode : spec.threshold_modes) {
            cell.threshold_mode = tmode;
            for (const std::string &partitioner : spec.partitioners) {
                cell.partitioner = partitioner;
                for (const std::string &gating : spec.gating) {
                    cell.gating = gating;
                    for (const std::string &samp : spec.sampling) {
                        cell.sampling = samp;
                        for (const std::uint64_t seed : spec.seeds) {
                            cell.seed = seed;
                            ++cells;
                            EXPECT_TRUE(
                                prefetched.count(results.keyFor(cell)));
                            for (const std::string &app :
                                 trace::groupByName("G2-1").apps) {
                                EXPECT_TRUE(prefetched.count(
                                    soloRunKey(spec, app, 2, cell)));
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(cells + 2 * 2 * 2, keys.size());
}

TEST(Spec, ValidateRejectsUnknownAxisNames)
{
    setThrowOnFatal(true);
    {
        ExperimentSpec spec = tinySpec();
        spec.schemes = {"fairshare", "turbo"};
        EXPECT_THROW(validateSpec(spec), FatalError);
    }
    {
        ExperimentSpec spec = tinySpec();
        spec.layout = "pie-chart";
        EXPECT_THROW(validateSpec(spec), FatalError);
    }
    {
        ExperimentSpec spec = tinySpec();
        spec.layout = "schemes";
        spec.baseline = "ucp"; // not in the schemes axis
        EXPECT_THROW(validateSpec(spec), FatalError);
    }
    {
        ExperimentSpec spec = tinySpec();
        spec.scale = "gigantic";
        EXPECT_THROW(validateSpec(spec), FatalError);
    }
    setThrowOnFatal(false);
}

// ---------------------------------------------------------------------------
// Canonical encoding

TEST(SpecEncoding, FormatParseRoundTripsDefaults)
{
    const ExperimentSpec spec;
    EXPECT_EQ(parseSpec(formatSpec(spec)), spec);
}

TEST(SpecEncoding, FormatParseRoundTripsEveryField)
{
    ExperimentSpec spec;
    spec.name = "fig99";
    spec.title = "A title with    spaces and: punctuation";
    spec.layout = "thresholds";
    spec.metric = "static_energy";
    spec.baseline = "0.1";
    spec.higher_better = false;
    spec.with_solo = false;
    spec.schemes = {"coop", "ucp"};
    spec.groups = {"G2-*", "G4-3", "G8-*"};
    spec.cores = {2, 8};
    // 1/3 and 0.1 are not exactly representable in binary64; the
    // encoding must still round-trip them bit-exactly.
    spec.thresholds = {0.0, 1.0 / 3.0, 0.1};
    spec.threshold_modes = {"paperliteral", "missratio"};
    spec.partitioners = {"greedy", "equalshare"};
    spec.repl = {"mru", "random"};
    spec.gating = {"drowsy"};
    spec.seeds = {0, 18446744073709551615ull};
    spec.scale = "paper";
    spec.solos = {"mcf", "*"};
    spec.solo_cores = 4;
    EXPECT_EQ(parseSpec(formatSpec(spec)), spec);
}

TEST(SpecEncoding, ParseRejectsUnknownKeysAndBadMagic)
{
    setThrowOnFatal(true);
    EXPECT_THROW(parseSpec("bogus v1\n"), FatalError);
    EXPECT_THROW(parseSpec("coopsim-spec v1\nschmes coop\n"),
                 FatalError);
    EXPECT_THROW(parseSpec("coopsim-spec v1\nthresholds banana\n"),
                 FatalError);
    // 32-bit fields reject values a cast would wrap (2^32 + 2 -> 2).
    for (const char *line :
         {"cores 2 4294967298", "banks 4294967296",
          "set_sample_period 4294967296", "op_sample_windows 4294967297",
          "solo_cores 4294967298"}) {
        EXPECT_THROW(parseSpec(std::string("coopsim-spec v1\n") + line +
                               "\n"),
                     FatalError)
            << line;
    }
    setThrowOnFatal(false);
    EXPECT_EQ(parseSpec("coopsim-spec v1\ncores 4294967295\n").cores,
              std::vector<std::uint32_t>{4294967295u});
}

TEST(SpecEncoding, HandWrittenSpecsKeepDefaultsForOmittedKeys)
{
    const ExperimentSpec spec = parseSpec("coopsim-spec v1\n"
                                          "# comment lines are fine\n"
                                          "name quick\n"
                                          "groups G2-3\n");
    EXPECT_EQ(spec.name, "quick");
    EXPECT_EQ(spec.groups, std::vector<std::string>{"G2-3"});
    EXPECT_EQ(spec.metric, "speedup");   // default retained
    EXPECT_EQ(spec.scale, "bench");      // default retained
}

TEST(RunKeyEncoding, GroupAndSoloKeysRoundTrip)
{
    ExperimentSpec spec;
    spec.schemes = {"cpe"};
    spec.scale = "test";
    spec.thresholds = {1.0 / 3.0};
    spec.threshold_modes = {"paperliteral"};
    spec.partitioners = {"greedy"};
    spec.repl = {"mru"};
    spec.gating = {"drowsy"};
    spec.seeds = {1234567890123456789ull};

    const sim::RunKey group =
        groupRunKey(spec, trace::groupByName("G4-3"));
    EXPECT_EQ(parseRunKey(formatRunKey(group)), group);

    const sim::RunKey solo = soloRunKey(spec, "h264ref", 2);
    EXPECT_EQ(parseRunKey(formatRunKey(solo)), solo);
}

TEST(RunKeyEncoding, ParseRejectsMalformedLines)
{
    setThrowOnFatal(true);
    EXPECT_THROW(parseRunKey("run scheme=coop"), FatalError);
    EXPECT_THROW(parseRunKey("group scheme=warp"), FatalError);
    EXPECT_THROW(parseRunKey("group bogus"), FatalError);
    EXPECT_THROW(parseRunKey("group color=red"), FatalError);
    // 32-bit fields reject values a cast would wrap, so a corrupt store
    // line cannot load as a different, valid key.
    for (const char *field :
         {"cores=4294967298", "banks=4294967296",
          "sample-period=4294967296", "op-windows=4294967297"}) {
        EXPECT_THROW(parseRunKey(std::string("group scheme=coop ") + field),
                     FatalError)
            << field;
    }
    setThrowOnFatal(false);
    EXPECT_EQ(parseRunKey("solo scheme=unmanaged cores=4294967295")
                  .num_cores,
              4294967295u);
}

TEST(SpecEncoding, ShippedSpecFilesRoundTripAndExpand)
{
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(COOPSIM_SPEC_DIR)) {
        if (entry.path().extension() != ".spec") {
            continue;
        }
        ++files;
        const std::string path = entry.path().string();
        const ExperimentSpec spec = parseSpecFile(path);
        EXPECT_EQ(parseSpec(formatSpec(spec)), spec) << path;
        // trace: groups resolve only once a recording is registered.
        if (std::any_of(spec.groups.begin(), spec.groups.end(),
                        tracefile::isTraceWorkload)) {
            continue;
        }
        const std::vector<sim::RunKey> keys = expandSpec(spec);
        EXPECT_FALSE(keys.empty()) << path;
        const std::unordered_set<sim::RunKey, sim::RunKeyHash> distinct(
            keys.begin(), keys.end());
        EXPECT_EQ(distinct.size(), keys.size()) << path;
    }
    // fig05-16, fig05_trace, scaling, banked, sampling.
    EXPECT_GE(files, 16u);
}

// ---------------------------------------------------------------------------
// CLI parsing

TEST(Cli, RejectsUnknownAndDisallowedFlagsUniformly)
{
    setThrowOnFatal(true);
    {
        // The motivating typo: --thread= (no s) must not be silently
        // ignored.
        const char *argv[] = {"bench", "--thread=4"};
        EXPECT_THROW(
            parseCli(2, const_cast<char **>(argv), kBenchFlags, ""),
            FatalError);
    }
    {
        // A real flag the binary did not opt into is rejected too.
        const char *argv[] = {"bench", "--csv"};
        EXPECT_THROW(
            parseCli(2, const_cast<char **>(argv), kBenchFlags, ""),
            FatalError);
    }
    {
        // Positional arguments need the positional capability.
        const char *argv[] = {"bench", "G2-3"};
        EXPECT_THROW(
            parseCli(2, const_cast<char **>(argv), kBenchFlags, ""),
            FatalError);
    }
    setThrowOnFatal(false);
}

TEST(Cli, ParsesAllowedFlagsAndValidatesValues)
{
    const char *argv[] = {"cli",           "--scale=test",
                          "--threads=8",   "--scheme=ucp",
                          "--group=G4-2",  "--threshold=0.125",
                          "--seed=7",      "--csv",
                          "--spec=x.spec", "G2-9"};
    const CliOptions options =
        parseCli(10, const_cast<char **>(argv), kAllFlags, "");
    EXPECT_EQ(options.scale, sim::RunScale::Test);
    EXPECT_TRUE(options.scale_set);
    EXPECT_EQ(options.scale_name, "test");
    EXPECT_EQ(options.threads, 8u);
    EXPECT_EQ(options.scheme, "ucp");
    EXPECT_EQ(options.group, "G4-2");
    EXPECT_EQ(options.threshold.value(), 0.125);
    EXPECT_EQ(options.seed.value(), 7u);
    EXPECT_TRUE(options.csv);
    EXPECT_EQ(options.spec_path, "x.spec");
    ASSERT_EQ(options.positional.size(), 1u);
    EXPECT_EQ(options.positional[0], "G2-9");

    setThrowOnFatal(true);
    const char *bad_scale[] = {"cli", "--scale=warp9"};
    EXPECT_THROW(
        parseCli(2, const_cast<char **>(bad_scale), kAllFlags, ""),
        FatalError);
    const char *bad_threads[] = {"cli", "--threads=0"};
    EXPECT_THROW(
        parseCli(2, const_cast<char **>(bad_threads), kAllFlags, ""),
        FatalError);
    setThrowOnFatal(false);
}

TEST(Cli, ShardFlagParsesStrictlyAndRejectsBadSlices)
{
    {
        const char *argv[] = {"cli", "--shard=2/5"};
        const CliOptions options =
            parseCli(2, const_cast<char **>(argv), kAllFlags, "");
        EXPECT_TRUE(options.shard_set);
        EXPECT_EQ(options.shard_index, 2u);
        EXPECT_EQ(options.shard_count, 5u);
    }
    setThrowOnFatal(true);
    for (const char *value :
         {"--shard=2/2",     // index must be < count
          "--shard=5/2",     //
          "--shard=0/0",     // zero shards
          "--shard=0/70000", // above the 65536 cap
          "--shard=x/2",     // non-numeric index
          "--shard=0/y",     // non-numeric count
          "--shard=-1/2",    // negative (would wrap via strtoull)
          "--shard=02",      // missing slash
          "--shard=/2",      // empty index
          "--shard=0/",      // empty count
          "--shard="}) {
        const char *argv[] = {"cli", value};
        EXPECT_THROW(
            parseCli(2, const_cast<char **>(argv), kAllFlags, ""),
            FatalError)
            << value;
    }
    setThrowOnFatal(false);
}

TEST(Cli, SuperviseFlagsParseAndValidate)
{
    {
        const char *argv[] = {"cli", "--supervise", "--shards=8",
                              "--shard-timeout=2.5",
                              "--shard-retries=5"};
        const CliOptions options =
            parseCli(5, const_cast<char **>(argv), kAllFlags, "");
        EXPECT_TRUE(options.supervise);
        EXPECT_EQ(options.shards, 8u);
        EXPECT_EQ(options.shard_timeout_s, 2.5);
        EXPECT_EQ(options.shard_retries, 5u);
    }
    {
        // Defaults when not given.
        const char *argv[] = {"cli", "--supervise"};
        const CliOptions options =
            parseCli(2, const_cast<char **>(argv), kAllFlags, "");
        EXPECT_EQ(options.shards, 0u);
        EXPECT_EQ(options.shard_timeout_s, 900.0);
        EXPECT_EQ(options.shard_retries, 3u);
    }
    setThrowOnFatal(true);
    for (const char *value :
         {"--shards=0", "--shards=70000", "--shards=x",
          "--shard-timeout=-1", "--shard-timeout=abc",
          "--shard-retries=0", "--shard-retries=101"}) {
        const char *argv[] = {"cli", value};
        EXPECT_THROW(
            parseCli(2, const_cast<char **>(argv), kAllFlags, ""),
            FatalError)
            << value;
    }
    // A bench that did not opt into supervision rejects the flags.
    const char *argv[] = {"bench", "--supervise"};
    EXPECT_THROW(
        parseCli(2, const_cast<char **>(argv), kBenchFlags, ""),
        FatalError);
    setThrowOnFatal(false);
}

TEST(Cli, LenientModeSkipsFlagsOtherBinariesOwn)
{
    // reject_unknown=false: a parser that only owns --scale must
    // tolerate a command line carrying flags other binaries own.
    const char *argv[] = {"bench", "--threads=4", "--scale=test",
                          "--csv"};
    const CliOptions options = parseCli(
        4, const_cast<char **>(argv), kFlagScale, nullptr, false);
    EXPECT_EQ(options.scale, sim::RunScale::Test);
    EXPECT_EQ(options.threads, 0u); // --threads not opted into
}

// ---------------------------------------------------------------------------
// Executor drain + end-to-end

TEST(Experiment, ClearDrainsThenInvalidates)
{
    const ExperimentSpec spec = tinySpec();
    const std::vector<sim::RunKey> keys = expandSpec(spec);
    ASSERT_FALSE(keys.empty());
    sim::RunExecutor &executor = sim::RunExecutor::instance();

    // clear() right after an unconsumed prefetch is the racy shape
    // the drain wait exists for: it must block until the queued runs
    // retire, then invalidate.
    executor.prefetch(keys);
    executor.clear();

    executor.prefetch(keys);
    const std::uint64_t cycles = executor.run(keys.front()).total_cycles;
    EXPECT_GT(cycles, 0u);

    // Recomputation after a second clear is deterministic. (The old
    // reference itself dangles after clear(), per the documented
    // contract, so only the copied value is compared.)
    executor.clear();
    const sim::RunResult &after = executor.run(keys.front());
    EXPECT_FALSE(after.apps.empty());
    EXPECT_EQ(after.total_cycles, cycles);
}

TEST(Experiment, ResultsViewMatchesDirectExecutorRuns)
{
    ExperimentSpec spec = tinySpec();
    spec.with_solo = true;
    const ExperimentResults results = runExperiment(spec);

    Cell cell;
    cell.group = "G2-10";
    sim::RunExecutor &executor = sim::RunExecutor::instance();
    // Same RunKey -> same memoised object.
    EXPECT_EQ(&results.result(cell),
              &executor.run(groupRunKey(spec, trace::groupByName("G2-10"))));

    // Equation 1 over the solo baselines the spec prefetched.
    std::vector<double> alone;
    for (const std::string &app : trace::groupByName("G2-10").apps) {
        alone.push_back(
            executor.run(soloRunKey(spec, app, 2)).apps.at(0).ipc);
    }
    EXPECT_DOUBLE_EQ(results.weightedSpeedup(cell),
                     sim::weightedSpeedup(results.result(cell), alone));
}

TEST(Experiment, CustomSchemeRunsThroughTheExecutorByName)
{
    // Register a clone of FairShare under a new name: same factory,
    // different registry key. It must run end-to-end through the
    // executor and — being the same simulation — produce identical
    // numbers under a distinct memo entry.
    if (!schemeRegistry().contains("fairclone")) {
        registerScheme("fairclone", "FairClone",
                       [](const llc::LlcConfig &config,
                          mem::DramModel &dram) {
                           return llc::makeLlc(llc::Scheme::FairShare,
                                               config, dram);
                       });
    }

    ExperimentSpec spec = tinySpec();
    spec.schemes = {"fairshare", "fairclone"};
    const ExperimentResults results = runExperiment(spec);

    Cell fair;
    fair.group = "G2-10";
    fair.scheme = "fairshare";
    Cell clone;
    clone.group = "G2-10";
    clone.scheme = "fairclone";
    const sim::RunResult &a = results.result(fair);
    const sim::RunResult &b = results.result(clone);
    EXPECT_NE(&a, &b); // distinct cache entries...
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].ipc, b.apps[i].ipc); // ...same simulation
    }
    EXPECT_EQ(a.total_cycles, b.total_cycles);
}

TEST(Experiment, WorkerExceptionsBecomeRunFailuresNotPoolDeaths)
{
    // A scheme whose LLC factory throws: the worker catches at the
    // task boundary and the future rethrows a RunFailure naming the
    // key — the pool itself must survive.
    if (!schemeRegistry().contains("faulty")) {
        registerScheme("faulty", "Faulty",
                       [](const llc::LlcConfig &,
                          mem::DramModel &) -> std::unique_ptr<llc::BaseLlc> {
                           throw std::runtime_error("factory exploded");
                       });
    }

    sim::RunKey bad =
        groupRunKey(tinySpec(), trace::groupByName("G2-10"));
    bad.scheme = "faulty";

    auto recording = std::make_shared<store::ResultStore>();
    sim::RunExecutor executor(2);
    executor.attachStore(recording);
    try {
        executor.run(bad);
        FAIL() << "expected RunFailure";
    } catch (const sim::RunFailure &failure) {
        EXPECT_EQ(failure.key(), bad);
        const std::string what = failure.what();
        EXPECT_NE(what.find("factory exploded"), std::string::npos);
        EXPECT_NE(what.find(formatRunKey(bad)), std::string::npos);
    }
    EXPECT_EQ(executor.stats().failed_runs, 1u);
    // Nothing half-baked was recorded for the failed key.
    EXPECT_FALSE(recording->find(bad).has_value());

    // The pool is intact: a healthy run on the same executor works.
    sim::RunKey good = bad;
    good.scheme = "fairshare";
    const sim::RunResult &result = executor.run(good);
    EXPECT_FALSE(result.apps.empty());
    // Both tasks executed (the failed one counts as a simulation),
    // exactly one failed.
    EXPECT_EQ(executor.stats().simulations, 2u);
    EXPECT_EQ(executor.stats().failed_runs, 1u);
    EXPECT_TRUE(recording->find(good).has_value());

    // A consumed failure stays failed (memoised): rethrown, still
    // exactly one failed-run count.
    EXPECT_THROW(executor.run(bad), sim::RunFailure);
}
