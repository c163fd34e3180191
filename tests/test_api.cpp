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
 *  - the layout list, the baseline-on-axis rule, every column-axis
 *    layout's rendering and Table 3's spec at bench scale;
 *  - the unified CLI parser (uniform unknown-flag rejection);
 *  - a custom scheme registered by name running end-to-end through
 *    the executor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <unordered_set>

#include <coopsim/experiment.hpp>

#include "api/parse_util.hpp"
#include "llc/schemes.hpp"
#include "sim/metrics.hpp"
#include "trace/spec_profiles.hpp"

using namespace coopsim;
using namespace coopsim::api;
using coopsim::api::detail::splitWords;

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
                                    return std::make_unique<
                                        llc::CooperativeLlc>(config, dram);
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
        EXPECT_THROW(expandSpec(spec), FatalError);
    }
    {
        // The diagnostic lists exactly the layouts a table renders.
        ExperimentSpec spec = tinySpec();
        spec.layout = "pie-chart";
        try {
            expandSpec(spec);
            ADD_FAILURE() << "unknown layout accepted";
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what())
                          .find("(expected schemes, thresholds, "
                                "threshold_modes, partitioners, repl, "
                                "gating, takeover, transfers, "
                                "bandwidth, mpki, none)"),
                      std::string::npos)
                << error.what();
        }
    }
    {
        ExperimentSpec spec = tinySpec();
        spec.scale = "gigantic";
        EXPECT_THROW(expandSpec(spec), FatalError);
    }
    setThrowOnFatal(false);
}

TEST(Spec, BaselineMustBeAValueOfTheLayoutAxis)
{
    // tinySpec's axes: schemes fairshare, and the defaults thresholds
    // 0.05, threshold_modes missratio, partitioners lookahead, repl
    // lru, gating gatedvdd.
    struct Case
    {
        const char *layout;
        const char *on_axis;
        const char *off_axis;
    };
    const Case cases[] = {
        {"schemes", "fairshare", "ucp"},
        {"thresholds", "0.050", "0.1"},
        {"threshold_modes", "missratio", "paperliteral"},
        {"partitioners", "lookahead", "greedy"},
        {"repl", "lru", "mru"},
        {"gating", "gatedvdd", "drowsy"},
    };
    setThrowOnFatal(true);
    for (const Case &c : cases) {
        ExperimentSpec spec = tinySpec();
        spec.layout = c.layout;
        spec.baseline = c.on_axis;
        EXPECT_NO_THROW(expandSpec(spec)) << c.layout;
        spec.baseline = c.off_axis;
        EXPECT_THROW(expandSpec(spec), FatalError) << c.layout;
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
    for (const char *line : {"cores 2 4294967298", "solo_cores 4294967298"}) {
        EXPECT_THROW(parseSpec(std::string("coopsim-spec v1\n") + line +
                               "\n"),
                     FatalError)
            << line;
    }
    // The bank count is the topology row's: its key is unknown now.
    try {
        parseSpec("coopsim-spec v1\nbanks 0\n");
        ADD_FAILURE() << "banks accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("unknown spec key"),
                  std::string::npos)
            << error.what();
    }
    // A NaN threshold would make a key unequal to itself, and so a run
    // no memo or store could ever find again; infinities go too.
    for (const char *line : {"thresholds 0 nan", "thresholds inf",
                             "thresholds -inf", "thresholds 1e999"}) {
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
    // line cannot load as a different, valid key; the fields of deleted
    // settings hold only "0", and a threshold only a finite number.
    for (const char *field :
         {"cores=4294967298", "banks=2", "banks=4294967296", "banks=00",
          "sample-period=8", "op-windows=16", "threshold=nan",
          "threshold=inf", "threshold=-nan"}) {
        EXPECT_THROW(parseRunKey(std::string("group scheme=coop ") + field),
                     FatalError)
            << field;
        sim::RunKey key;
        EXPECT_FALSE(tryParseRunKey(
            std::string("group scheme=coop ") + field, key))
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
        const std::vector<sim::RunKey> keys = expandSpec(spec);
        EXPECT_FALSE(keys.empty()) << path;
        const std::unordered_set<sim::RunKey, sim::RunKeyHash> distinct(
            keys.begin(), keys.end());
        EXPECT_EQ(distinct.size(), keys.size()) << path;
    }
    // fig05-16, scaling, banked, sampling, table3,
    // ablation_replacement, ablation_threshold_mode, ext_drowsy.
    EXPECT_GE(files, 19u);
}

// ---------------------------------------------------------------------------
// CLI parsing

TEST(Cli, RejectsUnknownAndDisallowedFlagsUniformly)
{
    setThrowOnFatal(true);
    {
        // The motivating typo: --thread= (no s) must not be silently
        // ignored.
        const char *argv[] = {"example", "--thread=4"};
        EXPECT_THROW(
            parseCli(2, const_cast<char **>(argv), kExampleFlags, ""),
            FatalError);
    }
    {
        // A real flag the binary did not opt into is rejected too.
        const char *argv[] = {"example", "--seed=1"};
        EXPECT_THROW(
            parseCli(2, const_cast<char **>(argv), kExampleFlags, ""),
            FatalError);
    }
    {
        // Positional arguments need the positional capability.
        const char *argv[] = {"tool", "G2-3"};
        EXPECT_THROW(parseCli(2, const_cast<char **>(argv),
                              kFlagScale | kFlagThreads, ""),
                     FatalError);
    }
    // Deleted flags die as unknown flags, so a stale script fails
    // loudly: the shard-retry driver's, the shard fold (a plain store
    // run folds every store file), the single-cell CSV row, trace-file
    // record and replay, sweep slicing, the memo budget and the memo's
    // off switch.
    for (const char *name :
         {"supervise", "shards=2", "shard-timeout=1", "shard-retries=2",
          "merge", "csv", "record=x", "trace-dir=x", "shard=0/2",
          "stream-cache-mb=64", "no-stream-memo"}) {
        const std::string flag = std::string("--") + name;
        const char *argv[] = {"cli", flag.c_str()};
        try {
            parseCli(2, const_cast<char **>(argv), kAllFlags, "");
            ADD_FAILURE() << flag << " accepted";
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what()).find("unknown flag"),
                      std::string::npos)
                << error.what();
        }
    }
    setThrowOnFatal(false);
}

TEST(Cli, ExampleFlagsAdmitOnlyWhatTheExamplesApply)
{
    // The examples apply --scale and --threads and read a group name;
    // a store flag they would silently ignore is fatal.
    const char *argv[] = {"example", "--scale=test", "--threads=2",
                          "G4-8"};
    const CliOptions options =
        parseCli(4, const_cast<char **>(argv), kExampleFlags, "");
    EXPECT_EQ(options.scale_name, "test");
    EXPECT_EQ(options.threads, 2u);
    ASSERT_EQ(options.positional.size(), 1u);
    EXPECT_EQ(options.positional[0], "G4-8");

    setThrowOnFatal(true);
    const char *bad[] = {"example", "--store=x"};
    EXPECT_THROW(parseCli(2, const_cast<char **>(bad), kExampleFlags, ""),
                 FatalError);
    setThrowOnFatal(false);
}

TEST(Cli, ParsesAllowedFlagsAndValidatesValues)
{
    const char *argv[] = {"cli",           "--scale=test",
                          "--threads=8",   "--scheme=ucp",
                          "--group=G4-2",  "--threshold=0.125",
                          "--seed=7",      "--spec=x.spec",
                          "G2-9"};
    const CliOptions options =
        parseCli(9, const_cast<char **>(argv), kAllFlags, "");
    EXPECT_EQ(options.scale, sim::RunScale::Test);
    EXPECT_TRUE(options.scale_set);
    EXPECT_EQ(options.scale_name, "test");
    EXPECT_EQ(options.threads, 8u);
    EXPECT_EQ(options.scheme, "ucp");
    EXPECT_EQ(options.group, "G4-2");
    EXPECT_EQ(options.threshold.value(), 0.125);
    EXPECT_EQ(options.seed.value(), 7u);
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
    for (const char *flag :
         {"--threshold=nan", "--threshold=inf", "--threshold=-inf"}) {
        const char *bad_threshold[] = {"cli", flag};
        EXPECT_THROW(parseCli(2, const_cast<char **>(bad_threshold),
                              kAllFlags, ""),
                     FatalError)
            << flag;
    }
    setThrowOnFatal(false);
}

// ---------------------------------------------------------------------------
// End-to-end

TEST(Experiment, ResultsViewMatchesDirectExecutorRuns)
{
    ExperimentSpec spec = tinySpec();
    spec.with_solo = true;
    const ExperimentResults results(spec);

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

namespace
{

/** printTable's output for @p results, as lines. */
std::vector<std::string>
renderedLines(const ExperimentResults &results, bool show_ci = false)
{
    testing::internal::CaptureStdout();
    printTable(results, show_ci);
    std::istringstream table(testing::internal::GetCapturedStdout());
    std::vector<std::string> lines;
    for (std::string line; std::getline(table, line);) {
        lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(Experiment, ColumnLayoutsPrintOneColumnPerAxisValue)
{
    // Each layout's baseline is its axis's first value, so the first
    // column reads 1.000 on the group row and the AVG row. The
    // threshold baseline is spelled differently from its axis value.
    const char *axes[] = {
        "layout schemes\nbaseline fairshare\nschemes fairshare coop\n",
        "layout thresholds\nbaseline 0.010\nthresholds 0.01 0.05\n",
        "layout threshold_modes\nbaseline missratio\n"
        "threshold_modes missratio paperliteral\n",
        "layout partitioners\nbaseline lookahead\n"
        "partitioners lookahead greedy\n",
        "layout repl\nbaseline lru\nrepl lru mru\n",
        "layout gating\nbaseline gatedvdd\ngating gatedvdd drowsy\n",
        // Sampled, printed with CIs: the baseline column is a run
        // divided by itself, exactly 1 with no uncertainty, however
        // wide the other column's CI.
        "layout partitioners\nbaseline lookahead\n"
        "partitioners lookahead greedy\nsampling setop\n",
    };
    for (const char *axis : axes) {
        const ExperimentResults results(
            parseSpec(std::string("coopsim-spec v1\ntitle t\n"
                                  "groups G2-10\nscale test\n") +
                      axis));
        const bool show_ci =
            std::string(axis).find("sampling") != std::string::npos;
        const std::vector<std::string> lines =
            renderedLines(results, show_ci);
        // Title, note, heading, G2-10, AVG.
        ASSERT_EQ(lines.size(), 5u) << axis;
        EXPECT_EQ(splitWords(lines[2]).size(), 3u) << lines[2];
        for (const std::size_t row : {3, 4}) {
            const std::vector<std::string> cells = splitWords(lines[row]);
            ASSERT_EQ(cells.size(), 3u) << lines[row];
            EXPECT_EQ(cells[1], show_ci ? "1.000±0.000" : "1.000")
                << axis << lines[row];
        }
    }
}

TEST(Experiment, Table3SpecMatchesEveryPaperClass)
{
    // At test scale two apps land a class off (mcf reads 5.00,
    // perlbench 1.34), so this runs the shipped spec at its own bench
    // scale: 19 short solo runs.
    const ExperimentSpec spec =
        parseSpecFile(std::string(COOPSIM_SPEC_DIR) + "/table3.spec");
    ASSERT_EQ(spec.scale, "bench");
    const ExperimentResults results(spec);
    const std::vector<std::string> apps = resolveSpecSolos(spec);
    ASSERT_EQ(apps.size(), 19u);
    for (const std::string &app : apps) {
        const double mpki =
            results.soloResult(app, spec.solo_cores).apps.at(0).mpki;
        EXPECT_EQ(trace::classifyMpki(mpki), trace::mpkiClassOf(app))
            << app << " measured " << mpki;
    }
    const std::vector<std::string> lines = renderedLines(results);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.back(), "# class matches: 19 / 19");
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
                           return std::make_unique<llc::FairShareLlc>(
                               config, dram);
                       });
    }

    ExperimentSpec spec = tinySpec();
    spec.schemes = {"fairshare", "fairclone"};
    const ExperimentResults results(spec);

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
