#include "api/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "api/parse_util.hpp"
#include "api/registry.hpp"
#include "common/logging.hpp"
#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "store/result_store.hpp"

namespace coopsim::api
{

using detail::parseDouble;
using detail::parseUint;

namespace
{

/** True when @p arg is "--key=..." ; @p value gets the suffix. */
bool
takeValue(const char *arg, const char *key, std::string &value)
{
    const std::size_t len = std::strlen(key);
    if (std::strncmp(arg, key, len) == 0) {
        value = arg + len;
        return true;
    }
    return false;
}

} // namespace

CliOptions
parseCli(int argc, char **argv, unsigned allowed, const char *usage)
{
    CliOptions options;
    std::string value;
    // Last flag wins throughout, and every occurrence is validated,
    // matching the historical scaleFromArgs/threadsFromArgs contract.
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--", 2) != 0) {
            if (allowed & kFlagPositional) {
                options.positional.push_back(arg);
                continue;
            }
            COOPSIM_FATAL("unexpected argument '", arg, "' (try --help)");
        }
        if (std::strcmp(arg, "--help") == 0) {
            std::printf("%s", usage != nullptr ? usage : "");
            std::exit(0);
        }
        if ((allowed & kFlagScale) && std::strcmp(arg, "--full") == 0) {
            options.scale = sim::RunScale::Paper;
            options.scale_name = "paper";
            options.scale_set = true;
        } else if ((allowed & kFlagScale) &&
                   takeValue(arg, "--scale=", value)) {
            options.scale = scaleRegistry().get(value);
            options.scale_name = value;
            options.scale_set = true;
        } else if ((allowed & kFlagThreads) &&
                   takeValue(arg, "--threads=", value)) {
            const std::uint64_t n = parseUint(value, "--threads");
            if (n < 1 || n > 1024) {
                COOPSIM_FATAL("invalid --threads value '", value,
                              "' (expected an integer in [1, 1024])");
            }
            options.threads = static_cast<unsigned>(n);
        } else if ((allowed & kFlagSpec) &&
                   takeValue(arg, "--spec=", value)) {
            options.spec_path = value;
        } else if ((allowed & kFlagScheme) &&
                   takeValue(arg, "--scheme=", value)) {
            schemeRegistry().get(value);
            options.scheme = value;
        } else if ((allowed & kFlagGroup) &&
                   takeValue(arg, "--group=", value)) {
            options.group = value;
        } else if ((allowed & kFlagThreshold) &&
                   takeValue(arg, "--threshold=", value)) {
            options.threshold = parseDouble(value, "--threshold");
        } else if ((allowed & kFlagSeed) &&
                   takeValue(arg, "--seed=", value)) {
            options.seed = parseUint(value, "--seed");
        } else if ((allowed & kFlagStore) &&
                   takeValue(arg, "--store=", value)) {
            if (value.empty()) {
                COOPSIM_FATAL("--store requires a directory path");
            }
            options.store_dir = value;
        } else if ((allowed & kFlagSampling) &&
                   takeValue(arg, "--sampling=", value)) {
            samplingRegistry().get(value); // fatal on unknown name
            options.sampling_name = value;
            options.sampling_set = true;
        } else if ((allowed & kFlagCi) &&
                   std::strcmp(arg, "--ci") == 0) {
            options.show_ci = true;
        } else {
            COOPSIM_FATAL("unknown flag '", arg, "' (try --help)");
        }
    }
    return options;
}

unsigned
applyCliThreads(const CliOptions &options)
{
    sim::RunExecutor &executor = sim::RunExecutor::instance();
    if (options.threads > 0) {
        executor.setThreads(options.threads);
    }
    return executor.threads();
}

void
printPreamble(const CliOptions &options, unsigned threads)
{
    if (options.scale == sim::RunScale::Paper) {
        std::printf("# scale: paper (1B insts/app, 5M-cycle epochs)\n");
    } else if (options.scale == sim::RunScale::Test) {
        std::printf("# scale: test (tiny; use --full for paper "
                    "scale)\n");
    } else {
        std::printf("# scale: bench miniature (use --full for paper "
                    "scale)\n");
    }
    std::printf("# threads: %u (--threads=N)\n", threads);
}

// ---------------------------------------------------------------------------
// Result-store session (--store=DIR)

namespace
{

std::shared_ptr<store::ResultStore> g_cli_store;
std::string g_cli_store_path;

/**
 * Registered with atexit() after the executor singleton exists, so it
 * runs before the executor's destructor: the save sees every result a
 * consumed future has recorded (in-flight runs that never completed
 * simply stay unrecorded).
 *
 * The save is the non-fatal trySave(): an atexit handler must never
 * re-enter exit() via COOPSIM_FATAL, and a full disk or lost rename
 * at shutdown should cost a loud stderr report naming the preserved
 * temp file — not the silent loss of a multi-hour sweep. The journals
 * stay on disk then, and still hold every completed run; so they do
 * when a run still in flight completes during the save.
 */
void
saveCliStore()
{
    if (g_cli_store == nullptr) {
        return;
    }
    std::string error;
    const std::optional<std::size_t> saved =
        finishStoreSession(*g_cli_store, g_cli_store_path, error);
    if (!saved) {
        std::fprintf(stderr,
                     "error: store save failed at exit: %s\n",
                     error.c_str());
    } else {
        std::fprintf(stderr, "# store: saved %zu results to %s\n",
                     *saved, g_cli_store_path.c_str());
    }
    printRunStats();
}

/** Prints the store's load-health counters (skipped lines,
 *  quarantined files) to stderr — only when any are non-zero, so a
 *  clean run's stderr is unchanged. */
void
printStoreHealth(const store::ResultStore &result_store)
{
    const store::ResultStore::Stats stats = result_store.stats();
    if (stats.lines_skipped > 0 || stats.files_quarantined > 0) {
        std::fprintf(
            stderr,
            "# store: health lines_skipped=%llu files_quarantined=%llu\n",
            static_cast<unsigned long long>(stats.lines_skipped),
            static_cast<unsigned long long>(stats.files_quarantined));
    }
}

} // namespace

void
printRunStats()
{
    const sim::RunExecutor::Stats stats =
        sim::RunExecutor::instance().stats();
    std::fprintf(stderr,
                 "# runs: simulations=%llu store_hits=%llu forked=%llu "
                 "reused=%llu\n",
                 static_cast<unsigned long long>(stats.simulations),
                 static_cast<unsigned long long>(stats.store_hits),
                 static_cast<unsigned long long>(stats.forked),
                 static_cast<unsigned long long>(stats.reused));
    if (stats.failed_runs > 0) {
        std::fprintf(stderr, "# runs: failed=%llu\n",
                     static_cast<unsigned long long>(stats.failed_runs));
    }
    // Idempotent: the cache's own exit hook prints nothing after this.
    sim::StreamCache::instance().printStats(stderr);
}

std::shared_ptr<store::ResultStore>
attachCliStore(const CliOptions &options)
{
    if (options.store_dir.empty()) {
        return nullptr;
    }
    auto result_store = std::make_shared<store::ResultStore>();
    const std::size_t loaded = result_store->loadDir(options.store_dir);
    std::fprintf(stderr, "# store: loaded %zu results from %s\n",
                 loaded, options.store_dir.c_str());
    printStoreHealth(*result_store);
    result_store->openJournal(options.store_dir);
    sim::RunExecutor::instance().attachStore(result_store);
    const bool register_handler = g_cli_store == nullptr;
    g_cli_store = result_store;
    g_cli_store_path =
        options.store_dir + "/" + store::kMergedFileName;
    if (register_handler) {
        std::atexit(saveCliStore);
    }
    return result_store;
}

std::optional<std::size_t>
finishStoreSession(store::ResultStore &session, const std::string &path,
                   std::string &error)
{
    // Read before the save's snapshot, so every put it counts is saved;
    // a put landing between the two only keeps the journals one more
    // load.
    const std::uint64_t puts = session.putCount();
    const std::optional<std::size_t> saved = session.trySave(path, error);
    if (saved) {
        session.removeJournals(puts);
    }
    return saved;
}

} // namespace coopsim::api
