/**
 * @file
 * coopbench: one repetition of one perfbench workload, in one process.
 *
 * perfbench/run.py spawns this binary once per repetition and
 * aggregates what it prints; see perfbench/README.md for the metrics.
 *
 * Modes (--mode=):
 *
 *  - untraced: the workload's RunKeys go through sim::RunExecutor the
 *    way coopsim_cli sends them (one closed batch). The caller never
 *    helps the pool, so exactly --threads workers simulate; per-run
 *    start/end times come from polling the executor's started-run
 *    counter (the queue is FIFO) and the completion order of an
 *    attached in-memory result store. No simulated component is
 *    wrapped.
 *  - traced: the same RunKeys, each built with sim::runConfig and run
 *    as a System on a pool of --threads bench-owned threads, with the
 *    op stream (SystemConfig::stream_factory) and the LLC (a scheme
 *    registered through api::registerScheme around api::makeLlcByName)
 *    wrapped in timers. Reports the per-layer ledger.
 *  - setup: stops at the first submission and reports set-up time only.
 *
 * --order=N picks the batch's submission order (see submissionOrder).
 *
 * Both run modes render the workload's tables from the results, print
 * them to stdout, then print one `COOPBENCH {json}` line.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include <coopsim/experiment.hpp>

#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"

using namespace coopsim;

namespace
{

// ---------------------------------------------------------------------------
// Clocks

/** CLOCK_MONOTONIC in ns: the clock run.py stamps the spawn with
 *  (Python's time.monotonic_ns), so set-up time spans exec. */
std::int64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(monotonicNs() - start_ns) * 1e-9;
}

/** Cheap timestamp for the per-call spans of the traced mode: the TSC
 *  costs about half a clock_gettime. Calibrated against
 *  CLOCK_MONOTONIC over each traced pass. */
std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(monotonicNs());
#endif
}

/** Ticks an empty span reads (the cost of the timestamps themselves),
 *  subtracted from every span so short calls are not inflated. */
std::uint64_t
emptySpanTicks()
{
    std::uint64_t best = ~std::uint64_t{0};
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t t0 = ticks();
        best = std::min(best, ticks() - t0);
    }
    return best;
}

const std::uint64_t kEmptySpan = emptySpanTicks();

std::uint64_t
spanSince(std::uint64_t t0)
{
    const std::uint64_t span = ticks() - t0;
    return span > kEmptySpan ? span - kEmptySpan : 0;
}

/** One LLC access in kAccessSamplePeriod is timed (and its span scaled
 *  up): ~100 ns accesses timed in full would nearly double the LLC's
 *  share and distort the ledger it is meant to explain. */
constexpr std::uint64_t kAccessSamplePeriod = 8;

// ---------------------------------------------------------------------------
// Workloads

struct Workload
{
    /** One closed batch: submitted whole, then awaited. Deduplicated
     *  across the workload's specs (the executor's memo would serve the
     *  repeats), so every key is one simulation. */
    std::vector<sim::RunKey> keys;
    /** Specs rendered after the batch, in order. */
    std::vector<api::ExperimentSpec> specs;
};

constexpr const char *kFigSpecs[] = {"fig05", "fig06", "fig07", "fig08",
                                     "fig09", "fig10", "fig11", "fig12",
                                     "fig13", "fig14", "fig15", "fig16"};

api::ExperimentSpec
loadSpec(const std::string &name, std::uint64_t seed,
         const std::string &scale)
{
    api::ExperimentSpec spec = api::parseSpecFile("specs/" + name + ".spec");
    spec.seeds = {seed};
    spec.scale = scale;
    return spec;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &scale)
{
    Workload w;
    if (name == "figs-2c4c") {
        for (const char *fig : kFigSpecs) {
            w.specs.push_back(loadSpec(fig, seed, scale));
        }
    } else if (name == "banked-32c") {
        w.specs.push_back(loadSpec("banked", seed, scale));
    } else if (name == "sampled-scaling") {
        api::ExperimentSpec spec = loadSpec("scaling", seed, scale);
        spec.sampling = {"setop"};
        w.specs.push_back(spec);
    } else {
        std::fprintf(stderr, "coopbench: unknown workload '%s'\n",
                     name.c_str());
        std::exit(2);
    }

    std::unordered_set<sim::RunKey, sim::RunKeyHash> seen;
    for (const api::ExperimentSpec &spec : w.specs) {
        for (const sim::RunKey &key : api::expandSpec(spec)) {
            if (seen.insert(key).second) {
                w.keys.push_back(key);
            }
        }
    }
    return w;
}

/**
 * The batch in submission order @p order: 0 is spec order, any other
 * value a fixed shuffle seeded by it alone (never by --seed, so every
 * seed's repetition N runs its keys in the same order). run.py gives
 * each repetition its own order, so a key's per-run time is sampled at
 * a different moment of each repetition rather than always in the same
 * few seconds, where one burst of host load would move every sample.
 */
std::vector<sim::RunKey>
submissionOrder(std::vector<sim::RunKey> keys, std::uint64_t order)
{
    if (order != 0) {
        // Fisher-Yates over mt19937_64, whose output the standard fixes.
        std::mt19937_64 rng(order);
        for (std::size_t i = keys.size(); i > 1; --i) {
            std::swap(keys[i - 1], keys[rng() % i]);
        }
    }
    return keys;
}

/** Applications a key's System runs. */
std::size_t
expectedApps(const sim::RunKey &key)
{
    return key.kind == sim::RunKey::Kind::Group
               ? api::workloadRegistry().get(key.name).apps.size()
               : 1;
}

/** Output sanity a result must satisfy whatever the seed. */
bool
sane(const sim::RunKey &key, const sim::RunResult &r)
{
    bool ok = r.apps.size() == expectedApps(key) && r.total_cycles > 0 &&
              std::isfinite(r.dynamic_energy_nj) &&
              r.dynamic_energy_nj >= 0.0 &&
              std::isfinite(r.static_energy_nj) &&
              r.static_energy_nj >= 0.0;
    for (const sim::AppResult &app : r.apps) {
        ok = ok && app.insts > 0 && std::isfinite(app.ipc) &&
             app.ipc > 0.0 && app.llc_hits <= app.llc_accesses &&
             app.llc_misses <= app.llc_accesses;
    }
    return ok;
}

// ---------------------------------------------------------------------------
// Untraced batches

struct BatchTiming
{
    double wall_s = 0.0;
    /** Per key, NaN where unknown (failed runs never complete). */
    std::vector<double> run_s;
    std::vector<double> queue_wait_s;
};

/**
 * Submits @p keys as one closed batch and waits for all of them
 * without helping the pool. Start times come from the executor's
 * started-simulation counter (workers pop the queue in submission
 * order), end times from the store's completion order; both are read
 * every 0.25 ms. The store is read before the counter so a run that
 * starts and ends between two polls is never seen ending first.
 */
BatchTiming
runBatch(sim::RunExecutor &executor, store::ResultStore &completed,
         const std::vector<sim::RunKey> &keys)
{
    std::unordered_map<sim::RunKey, std::size_t, sim::RunKeyHash> index;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        index.emplace(keys[i], i);
    }
    const sim::RunExecutor::Stats base = executor.stats();
    std::size_t seen = completed.size();
    const std::size_t base_done = seen;
    std::vector<double> start(keys.size(), NAN);
    std::vector<double> end(keys.size(), NAN);
    std::size_t started = 0;

    BatchTiming timing;
    const std::int64_t t0 = monotonicNs();
    executor.prefetch(keys);
    for (;;) {
        const std::size_t stored = completed.size();
        const sim::RunExecutor::Stats now = executor.stats();
        const double t = secondsSince(t0);
        const auto running = now.simulations - base.simulations;
        while (started < running && started < keys.size()) {
            start[started++] = t;
        }
        if (stored > seen) {
            const std::vector<sim::RunKey> done = completed.keys();
            for (std::size_t j = seen; j < stored; ++j) {
                const auto it = index.find(done[j]);
                if (it != index.end()) {
                    end[it->second] = t;
                }
            }
            seen = stored;
        }
        const auto failed = now.failed_runs - base.failed_runs;
        if ((seen - base_done) + failed >= keys.size()) {
            timing.wall_s = t;
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        timing.run_s.push_back(end[i] - start[i]);
        timing.queue_wait_s.push_back(start[i]);
    }
    return timing;
}

// ---------------------------------------------------------------------------
// Traced batches: timers around the op source and the LLC

/** Per-run span totals, in ticks. */
struct Ledger
{
    std::uint64_t run = 0;
    std::uint64_t ops = 0;
    std::uint64_t op_ticks = 0;
    std::uint64_t opens = 0;
    std::uint64_t open_ticks = 0;
    std::uint64_t access_calls = 0;
    /** Calls whose span was timed, and those spans' total. */
    std::uint64_t access_timed = 0;
    std::uint64_t access_ticks = 0;
    std::uint64_t access_hits = 0;
    std::uint64_t ways_probed = 0;
    std::uint64_t epoch_calls = 0;
    std::uint64_t epoch_ticks = 0;
    std::uint64_t quanta = 0;
    std::uint64_t steps = 0;
    /** Instructions the run stands for (warm-up + quota per core). */
    std::uint64_t represented_insts = 0;

    void add(const Ledger &o)
    {
        run += o.run;
        ops += o.ops;
        op_ticks += o.op_ticks;
        opens += o.opens;
        open_ticks += o.open_ticks;
        access_calls += o.access_calls;
        access_timed += o.access_timed;
        access_ticks += o.access_ticks;
        access_hits += o.access_hits;
        ways_probed += o.ways_probed;
        epoch_calls += o.epoch_calls;
        epoch_ticks += o.epoch_ticks;
        quanta += o.quanta;
        steps += o.steps;
        represented_insts += o.represented_insts;
    }
};

/** The ledger of the run the current thread is constructing; the
 *  registered scheme factory has no other way to reach it. */
thread_local Ledger *tl_ledger = nullptr;

/** Times every batch the core pulls from its op source. */
class TimedStream final : public core::OpStream
{
  public:
    TimedStream(std::unique_ptr<core::OpStream> inner, Ledger &ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {
    }

    core::MemOp next() override
    {
        core::MemOp op;
        nextBatch(&op, 1);
        return op;
    }

    std::size_t nextBatch(core::MemOp *out, std::size_t max) override
    {
        const std::uint64_t t0 = ticks();
        const std::size_t n = inner_->nextBatch(out, max);
        ledger_.op_ticks += spanSince(t0);
        ledger_.ops += n;
        return n;
    }

  private:
    std::unique_ptr<core::OpStream> inner_;
    Ledger &ledger_;
};

/**
 * Forwards the whole Llc interface to the LLC api::makeLlcByName built
 * (banked, or a bare scheme), timing access() and epoch(). It is a
 * BaseLlc only because scheme factories return one; its own arrays go
 * unused, so they get a one-set geometry (shellConfig). It sits at the
 * top of the LLC stack (the System is given banks=1/mod so
 * makeLlcByName calls the factory once, and the factory
 * rebuilds the real organisation underneath), so a banked LLC's
 * energy totals still come from its real banks.
 */
class TimedLlc final : public llc::BaseLlc
{
  public:
    TimedLlc(const llc::LlcConfig &config, mem::DramModel &dram,
             std::unique_ptr<llc::Llc> inner, Ledger &ledger)
        : BaseLlc(shellConfig(config), dram, false),
          inner_(std::move(inner)), ledger_(ledger)
    {
    }

    llc::LlcAccess access(CoreId core, Addr addr, AccessType type,
                          Cycle now) override
    {
        llc::LlcAccess a;
        if (++ledger_.access_calls % kAccessSamplePeriod != 0) {
            a = inner_->access(core, addr, type, now);
        } else {
            const std::uint64_t t0 = ticks();
            a = inner_->access(core, addr, type, now);
            ledger_.access_ticks += spanSince(t0);
            ledger_.access_timed += 1;
        }
        ledger_.access_hits += a.hit ? 1 : 0;
        ledger_.ways_probed += a.ways_probed;
        return a;
    }

    void epoch(Cycle now) override
    {
        const std::uint64_t t0 = ticks();
        inner_->epoch(now);
        ledger_.epoch_ticks += spanSince(t0);
        ledger_.epoch_calls += 1;
    }

    double poweredWays() const override { return inner_->poweredWays(); }
    std::vector<std::uint32_t> allocation() const override
    {
        return inner_->allocation();
    }
    llc::Scheme scheme() const override { return inner_->scheme(); }
    void integrateStatic(Cycle now) override { inner_->integrateStatic(now); }
    void resetStats(Cycle now) override { inner_->resetStats(now); }
    const llc::LlcConfig &config() const override { return inner_->config(); }
    const llc::CoreLlcStats &coreStats(CoreId core) const override
    {
        return inner_->coreStats(core);
    }
    const llc::TakeoverEventStats &takeoverEvents() const override
    {
        return inner_->takeoverEvents();
    }
    const stats::TimeSeries &flushSeries() const override
    {
        return inner_->flushSeries();
    }
    const std::vector<double> &transferDurations() const override
    {
        return inner_->transferDurations();
    }
    std::uint64_t flushedLines() const override
    {
        return inner_->flushedLines();
    }
    std::uint64_t epochsRun() const override { return inner_->epochsRun(); }
    std::uint64_t repartitions() const override
    {
        return inner_->repartitions();
    }
    energy::EnergyTotals energyTotals() const override
    {
        return inner_->energyTotals();
    }
    double avgWaysProbed() const override { return inner_->avgWaysProbed(); }
    std::uint32_t banks() const override { return inner_->banks(); }
    std::uint64_t bankConflicts() const override
    {
        return inner_->bankConflicts();
    }
    std::uint64_t bankConflictCycles() const override
    {
        return inner_->bankConflictCycles();
    }
    Cycle portAccess(Addr addr, Cycle now) override
    {
        return inner_->portAccess(addr, now);
    }
    void carryBacklog(Cycle from, Cycle delta) override
    {
        inner_->carryBacklog(from, delta);
    }

  private:
    /** One set of the real way count: the BaseLlc part still passes its
     *  ways >= cores check without a second LLC-sized array. */
    static llc::LlcConfig shellConfig(llc::LlcConfig config)
    {
        config.geometry.size_bytes =
            static_cast<std::uint64_t>(config.geometry.ways) *
            config.geometry.block_bytes;
        return config;
    }

    std::unique_ptr<llc::Llc> inner_;
    Ledger &ledger_;
};

/** Registry name of the timed alias of (scheme, banks, slice hash). */
std::string
timedSchemeName(const llc::LlcConfig &llc_config, const std::string &scheme)
{
    return "perfbench-timed:" + scheme + ":" +
           std::to_string(llc_config.banks) + ":" +
           api::sliceHashKeyOf(llc_config.slice_hash);
}

/** Registers a timed alias for every LLC organisation @p keys build.
 *  Registration must precede the pool (registry contract). */
void
registerTimedSchemes(const std::vector<sim::RunKey> &keys)
{
    for (const sim::RunKey &key : keys) {
        const sim::SystemConfig config = sim::runConfig(key);
        const std::string name = timedSchemeName(config.llc, key.scheme);
        if (api::schemeRegistry().contains(name)) {
            continue;
        }
        api::registerScheme(
            name, api::schemeLabel(key.scheme),
            [scheme = key.scheme, banks = config.llc.banks,
             hash = config.llc.slice_hash](const llc::LlcConfig &lc,
                                           mem::DramModel &dram)
                -> std::unique_ptr<llc::BaseLlc> {
                llc::LlcConfig real = lc;
                real.banks = banks;
                real.slice_hash = hash;
                return std::make_unique<TimedLlc>(
                    lc, dram, api::makeLlcByName(scheme, real, dram),
                    *tl_ledger);
            });
    }
}

/** executeRun's System construction, with the timed hooks installed. */
sim::RunResult
runTimed(const sim::RunKey &key, Ledger &ledger)
{
    tl_ledger = &ledger;
    const std::uint64_t t0 = ticks();
    sim::SystemConfig config = sim::runConfig(key);
    std::vector<trace::AppProfile> profiles;
    std::uint32_t topology_cores = key.num_cores;
    if (key.kind == sim::RunKey::Kind::Group) {
        const trace::WorkloadGroup &group =
            api::workloadRegistry().get(key.name);
        profiles = trace::groupProfiles(group);
        topology_cores = static_cast<std::uint32_t>(group.apps.size());
    } else {
        config.num_cores = 1;
        config.llc.num_cores = 1;
        profiles = {trace::specProfile(key.name)};
    }
    config.scheme = timedSchemeName(config.llc, key.scheme);
    config.llc.banks = 1;
    config.llc.slice_hash = llc::SliceHashKind::Mod;
    sim::StreamFactory memo = sim::StreamCache::instance().factory(
        key.seed, key.scale, topology_cores);
    config.stream_factory =
        [memo, &ledger](std::uint32_t c, const trace::AppProfile &profile,
                        const trace::StreamGeometry &geometry,
                        std::uint64_t seed) -> std::unique_ptr<core::OpStream> {
        const std::uint64_t open0 = ticks();
        std::unique_ptr<core::OpStream> stream =
            memo(c, profile, geometry, seed);
        ledger.open_ticks += spanSince(open0);
        ledger.opens += 1;
        return std::make_unique<TimedStream>(std::move(stream), ledger);
    };
    ledger.represented_insts =
        static_cast<std::uint64_t>(config.num_cores) *
        (config.warmup_insts + config.insts_per_app);

    sim::System system(config, std::move(profiles));
    sim::RunResult result = system.run();
    ledger.quanta = system.driverStats().quanta;
    ledger.steps = system.driverStats().steps;
    ledger.run = ticks() - t0;
    tl_ledger = nullptr;
    return result;
}

struct TracedBatch
{
    double wall_s = 0.0;
    std::vector<std::optional<sim::RunResult>> results;
    std::vector<Ledger> ledgers;
};

/** Runs @p keys on @p threads bench-owned workers, FIFO like the
 *  executor's queue. */
TracedBatch
runTracedBatch(const std::vector<sim::RunKey> &keys, unsigned threads)
{
    TracedBatch batch;
    batch.results.resize(keys.size());
    batch.ledgers.resize(keys.size());
    std::atomic<std::size_t> next{0};
    const std::int64_t t0 = monotonicNs();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < keys.size(); i = next++) {
                try {
                    batch.results[i] = runTimed(keys[i], batch.ledgers[i]);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "coopbench: run failed: %s: %s\n",
                                 api::formatRunKey(keys[i]).c_str(),
                                 e.what());
                }
            }
        });
    }
    for (std::thread &worker : pool) {
        worker.join();
    }
    batch.wall_s = secondsSince(t0);
    return batch;
}

// ---------------------------------------------------------------------------
// Output

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

class Json
{
  public:
    void num(const char *key, double v)
    {
        sep(key);
        if (std::isfinite(v)) {
            body_ += fmt("%.17g", v);
        } else {
            body_ += "null";
        }
    }
    void num(const char *key, std::uint64_t v)
    {
        sep(key);
        body_ += std::to_string(v);
    }
    void str(const char *key, const std::string &v)
    {
        sep(key);
        body_ += "\"" + v + "\"";
    }
    void list(const char *key, const std::vector<double> &v)
    {
        sep(key);
        body_ += "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            body_ += i ? "," : "";
            body_ += std::isfinite(v[i]) ? fmt("%.9g", v[i]) : "null";
        }
        body_ += "]";
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    static std::string fmt(const char *f, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), f, v);
        return buf;
    }
    void sep(const char *key)
    {
        body_ += body_.empty() ? "" : ",";
        body_ += '"';
        body_ += key;
        body_ += "\":";
    }
    std::string body_;
};

struct Args
{
    std::string workload;
    std::string mode = "untraced";
    std::string scale = "bench";
    std::uint64_t seed = 42;
    unsigned threads = 1;
    std::int64_t spawn_ns = 0;
    std::uint64_t order = 0;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        const std::string flag = a.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : a.substr(eq + 1);
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--mode") {
            args.mode = value;
        } else if (flag == "--scale") {
            args.scale = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--threads") {
            args.threads = static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 10));
        } else if (flag == "--spawn-ns") {
            args.spawn_ns = std::strtoll(value.c_str(), nullptr, 10);
        } else if (flag == "--order") {
            args.order = std::strtoull(value.c_str(), nullptr, 10);
        } else {
            std::fprintf(stderr, "coopbench: unknown argument '%s'\n",
                         a.c_str());
            std::exit(2);
        }
    }
    if (args.workload.empty() || args.threads == 0 ||
        (args.mode != "untraced" && args.mode != "traced" &&
         args.mode != "setup")) {
        std::fprintf(stderr, "usage: coopbench --workload=NAME "
                             "--mode=untraced|traced|setup --threads=N "
                             "[--seed=N] [--scale=bench|test] "
                             "[--spawn-ns=NS] [--order=N]\n");
        std::exit(2);
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t main_ns = monotonicNs();
    const Args args = parseArgs(argc, argv);
    const bool traced = args.mode == "traced";

    // ---- Set-up: registries, spec parse + expansion, executor.
    api::warmAllRegistries();
    const Workload workload =
        makeWorkload(args.workload, args.seed, args.scale);
    sim::RunExecutor::requestInitialThreads(args.threads);
    sim::RunExecutor &executor = sim::RunExecutor::instance();
    auto completed = std::make_shared<store::ResultStore>();
    executor.attachStore(completed);
    if (traced) {
        registerTimedSchemes(workload.keys);
    }
    const std::int64_t setup_end_ns = monotonicNs();

    Json out;
    out.str("mode", args.mode);
    const std::int64_t start_ns = args.spawn_ns > 0 ? args.spawn_ns : main_ns;
    out.num("setup_s", static_cast<double>(setup_end_ns - start_ns) * 1e-9);
    out.num("api_setup_s", static_cast<double>(setup_end_ns - main_ns) * 1e-9);
    out.num("keys", static_cast<std::uint64_t>(workload.keys.size()));
    if (args.mode == "setup") {
        std::printf("COOPBENCH %s\n", out.text().c_str());
        return 0;
    }

    // ---- The measured batch.
    const std::vector<sim::RunKey> keys =
        submissionOrder(workload.keys, args.order);
    BatchTiming timing;
    Ledger ledger;
    std::unordered_set<sim::RunKey, sim::RunKeyHash> failed_keys;
    double tick_s = 0.0;
    if (traced) {
        const std::int64_t ns0 = monotonicNs();
        const std::uint64_t tk0 = ticks();
        TracedBatch batch = runTracedBatch(keys, args.threads);
        timing.wall_s = batch.wall_s;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (batch.results[i]) {
                // The output check and the tables below are served from
                // the store: the executor simulates nothing.
                completed->put(keys[i], *batch.results[i]);
                ledger.add(batch.ledgers[i]);
            } else {
                failed_keys.insert(keys[i]);
            }
        }
        tick_s = static_cast<double>(monotonicNs() - ns0) * 1e-9 /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, ticks() - tk0));
    } else {
        timing = runBatch(executor, *completed, keys);
    }

    // ---- Output check inputs: sorted store lines + rendered tables.
    std::vector<std::string> lines;
    std::uint64_t insane = 0;
    std::uint64_t repartitions = 0, transfers = 0, flushed = 0;
    std::uint64_t dram_reads = 0, dram_writebacks = 0, dram_flushes = 0;
    std::uint64_t bank_conflicts = 0, windows = 0;
    std::uint64_t failures = failed_keys.size();
    for (const sim::RunKey &key : keys) {
        if (failed_keys.count(key) != 0) {
            continue;
        }
        try {
            const sim::RunResult &r = executor.run(key);
            if (!sane(key, r)) {
                ++insane;
            }
            lines.push_back(api::formatRunKey(key) + "\t" +
                            store::formatResult(r));
            repartitions += r.repartitions;
            transfers += r.completed_transfers;
            flushed += r.flushed_lines;
            dram_reads += r.dram_reads;
            dram_writebacks += r.dram_writebacks;
            dram_flushes += r.dram_flushes;
            bank_conflicts += r.bank_conflicts;
            windows += r.sample_windows;
        } catch (const sim::RunFailure &failure) {
            std::fprintf(stderr, "coopbench: %s\n", failure.what());
            ++failures;
        }
    }
    std::sort(lines.begin(), lines.end());
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const std::string &line : lines) {
        digest = fnv1a(line + "\n", digest);
    }
    if (failures == 0 && insane == 0) {
        for (const api::ExperimentSpec &spec : workload.specs) {
            api::printTable(api::ExperimentResults(spec));
        }
    }
    std::fflush(stdout);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    const sim::RunExecutor::Stats ex = executor.stats();
    const sim::StreamCache::Stats sc = sim::StreamCache::instance().stats();

    char digest_hex[17];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    out.num("sweep_s", timing.wall_s);
    out.num("cpu_s", tv(usage.ru_utime) + tv(usage.ru_stime));
    out.num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    out.num("attempted", static_cast<std::uint64_t>(keys.size()));
    out.num("run_failures", failures);
    out.num("insane_results", insane);
    out.str("lines_digest", digest_hex);
    out.num("executor_simulations", ex.simulations);
    out.num("executor_failed_runs", ex.failed_runs);
    out.list("run_s", timing.run_s);
    // Group runs alone, in spec order whatever the submission order, so
    // run.py can match a key's samples across repetitions. The solo runs
    // that give each app its alone-IPC baseline cost a tenth of a group
    // run or less; pooled with them, the median fell between the two.
    std::unordered_map<sim::RunKey, double, sim::RunKeyHash> run_s_of;
    for (std::size_t i = 0; i < timing.run_s.size(); ++i) {
        run_s_of.emplace(keys[i], timing.run_s[i]);
    }
    std::vector<double> group_run_s;
    for (const sim::RunKey &key : workload.keys) {
        const auto it = run_s_of.find(key);
        if (it != run_s_of.end() && key.kind == sim::RunKey::Kind::Group) {
            group_run_s.push_back(it->second);
        }
    }
    out.list("group_run_s", group_run_s);
    out.list("queue_wait_s", timing.queue_wait_s);
    out.num("stream_generated", sc.streams_generated);
    out.num("stream_replayed", sc.streams_replayed);
    out.num("stream_evicted", sc.streams_evicted);
    out.num("stream_loaded", sc.streams_loaded);
    out.num("stream_resident_mb",
            static_cast<double>(
                sim::StreamCache::instance().residentBytes()) /
                1048576.0);
    out.num("repartitions", repartitions);
    out.num("completed_transfers", transfers);
    out.num("flushed_lines", flushed);
    out.num("dram_reads", dram_reads);
    out.num("dram_writebacks", dram_writebacks);
    out.num("dram_flushes", dram_flushes);
    out.num("bank_conflicts", bank_conflicts);
    out.num("sample_windows", windows);
    if (traced) {
        const auto s = [tick_s](std::uint64_t t) {
            return static_cast<double>(t) * tick_s;
        };
        // Only one access in kAccessSamplePeriod was timed.
        const double access_scale =
            static_cast<double>(ledger.access_calls) /
            static_cast<double>(
                std::max<std::uint64_t>(1, ledger.access_timed));
        out.num("ledger_run_s", s(ledger.run));
        out.num("op_ops", ledger.ops);
        out.num("op_s", s(ledger.op_ticks));
        out.num("stream_opens", ledger.opens);
        out.num("stream_open_s", s(ledger.open_ticks));
        out.num("llc_access_calls", ledger.access_calls);
        out.num("llc_access_s", s(ledger.access_ticks) * access_scale);
        out.num("llc_access_hits", ledger.access_hits);
        out.num("llc_ways_probed", ledger.ways_probed);
        out.num("llc_epoch_calls", ledger.epoch_calls);
        out.num("llc_epoch_s", s(ledger.epoch_ticks));
        out.num("driver_quanta", ledger.quanta);
        out.num("driver_steps", ledger.steps);
        out.num("represented_insts", ledger.represented_insts);
    }
    std::printf("COOPBENCH %s\n", out.text().c_str());
    return 0;
}
