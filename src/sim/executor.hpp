/**
 * @file
 * Parallel simulation executor.
 *
 * The paper's figures are sweeps over (scheme x workload-group x
 * threshold x seed) of completely independent full-system simulations.
 * RunExecutor runs those simulations on a host thread pool behind a
 * future-based memo cache, so
 *
 *  - every distinct simulation is paid for exactly once per process,
 *    no matter how many figures request it (and no matter from which
 *    thread), and
 *  - a bench that enqueues its whole sweep up front (prefetch()) keeps
 *    every host core busy instead of walking the sweep serially.
 *
 * Determinism invariant: a simulation's result is a pure function of
 * its RunKey. Every System instance owns all of its mutable state —
 * cores, LLC (with its own Rng seeded from the config),
 * DRAM model and synthetic trace streams (seeded `seed + core * 7919`)
 * — and the library keeps no global mutable state on the simulation
 * path, so concurrent Systems never share anything and results are
 * bit-identical for 1 thread and N threads. test_executor.cpp asserts
 * this; keep it true when adding scheme state (seed anything random
 * from LlcConfig::seed, never from a global).
 */

#ifndef COOPSIM_SIM_EXECUTOR_HPP
#define COOPSIM_SIM_EXECUTOR_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/system.hpp"

namespace coopsim::store
{
class ResultStore;
}

namespace coopsim::sim
{

/**
 * Identity of one full-system simulation. Two runs with equal keys are
 * the same simulation (see the determinism invariant above), which is
 * what makes the key usable as a memo-cache index.
 */
struct RunKey
{
    enum class Kind : std::uint8_t
    {
        /** A Table 4 workload group sharing the LLC under a scheme. */
        Group,
        /** One app alone on the whole (unmanaged) LLC of an
         *  @p num_cores-core system — the weighted-speedup baseline. */
        Solo,
    };

    Kind kind = Kind::Group;
    /** Scheme-registry name ("coop", "ucp", ... or a custom
     *  registration); the string key is what lets extensions run
     *  through the executor without growing an enum. */
    std::string scheme = "coop";
    /** Group name ("G2-3", "G8-mix1") or solo app name ("h264ref"). */
    std::string name;
    /** Topology selector: the core count whose table row (2/4/8/16)
     *  sizes the LLC (solo runs shrink the core count to one but keep
     *  the geometry of the system they will later share). */
    std::uint32_t num_cores = 2;
    RunScale scale = RunScale::Bench;
    double threshold = 0.05;
    partition::ThresholdMode threshold_mode =
        partition::ThresholdMode::MissRatio;
    /** Epoch way-allocation algorithm (partitioner registry). */
    partition::Partitioner partitioner =
        partition::Partitioner::Lookahead;
    cache::ReplPolicy repl = cache::ReplPolicy::Lru;
    llc::GatingMode gating = llc::GatingMode::GatedVdd;
    std::uint64_t seed = 42;
    /** Slice-selection hash over the topology row's banks (only
     *  consulted when the LLC is banked, or forced over one bank by
     *  the Xor kind). */
    llc::SliceHashKind slice_hash = llc::SliceHashKind::Mod;
    /** Statistical sampling estimator; Exact is the reference and is
     *  omitted from formatted key lines so pre-sampling lines stay
     *  byte-stable. */
    sampling::Mode sampling = sampling::Mode::Exact;

    bool operator==(const RunKey &) const = default;
};

/** FNV-style combiner over every RunKey field. */
struct RunKeyHash
{
    std::size_t operator()(const RunKey &key) const;
};

/**
 * The SystemConfig @p key describes: topology + scale via
 * makeSystemConfig, then the key's LLC knobs, seed and sampling mode.
 * perfbench's traced runs need exactly this mapping, which is why it
 * is public — executeRun() is
 * `System(runConfig(key), ...).run()` plus workload resolution.
 */
SystemConfig runConfig(const RunKey &key);

/** Runs the simulation @p key describes (pure; no caching). */
RunResult executeRun(const RunKey &key);

/**
 * The failed-run state of a future: any exception escaping a
 * simulation inside a worker task (or a helping caller) is caught at
 * the task boundary and rethrown as a RunFailure naming the offending
 * RunKey, stored on that run's future. The pool is never taken down —
 * other queued runs proceed — and nothing is recorded into the
 * attached store for the failed key. Callers observe the failure when
 * they collect the result: run() (and future.get()) rethrow it.
 */
class RunFailure : public std::runtime_error
{
  public:
    RunFailure(RunKey key, const std::string &reason);

    /** The run that failed. */
    const RunKey &key() const { return key_; }

  private:
    RunKey key_;
};

/**
 * Thread-pool executor with a future-based memo cache and an optional
 * disk-backed result store behind it.
 *
 * Worker count resolution, in priority order: setThreads() (the
 * --threads=N flag), the COOPSIM_THREADS environment variable, then
 * std::thread::hardware_concurrency().
 *
 * The pool starts lazily: no worker thread is spawned until a
 * submission actually needs a simulation. With a store attached
 * (attachStore()), a key already on disk becomes a ready future at
 * submit() time — a fully warmed sweep runs zero simulations and
 * never starts the pool.
 */
class RunExecutor
{
  public:
    /** Run-count accounting since construction (the stat the
     *  warm-store acceptance check reads). */
    struct Stats
    {
        /** Simulations actually executed (memo/store misses),
         *  including ones that subsequently failed. */
        std::uint64_t simulations = 0;
        /** Submissions served from the attached result store. */
        std::uint64_t store_hits = 0;
        /** Simulations that ended in a RunFailure instead of a
         *  result (their futures rethrow; nothing is stored). */
        std::uint64_t failed_runs = 0;
    };

    /** @param threads Worker count; 0 resolves the default above. */
    explicit RunExecutor(unsigned threads = 0);
    ~RunExecutor();

    RunExecutor(const RunExecutor &) = delete;
    RunExecutor &operator=(const RunExecutor &) = delete;

    /** The process-wide executor every ExperimentResults prefetches
     *  into and reads from. */
    static RunExecutor &instance();

    /**
     * Worker count the first instance() construction uses (0 = the
     * default resolution). Lets api::applyCliThreads() build the pool at
     * the requested size directly instead of spawning a full
     * hardware_concurrency pool only to tear it down; once the
     * process-wide executor exists this is a no-op — use setThreads().
     */
    static void requestInitialThreads(unsigned threads);

    /**
     * Enqueues every not-yet-cached key for background execution and
     * returns immediately. Benches call this with their full sweep
     * before collecting any result.
     */
    void prefetch(const std::vector<RunKey> &keys);

    /**
     * Result of the simulation @p key describes, running it (or waiting
     * for its in-flight run) if needed. While waiting, the calling
     * thread helps drain the queue instead of idling. The reference
     * stays valid until clear().
     */
    const RunResult &run(const RunKey &key);

    /**
     * Drains the executor (waits until the queue is empty and no
     * worker or helping caller is inside a run), asserts the drained
     * state, then empties the memo cache.
     *
     * Contract: clear() must not race with concurrent prefetch()/run()
     * calls from other threads — results handed out before clear()
     * dangle afterwards, and a submission racing the drain would be
     * executed into a cache the caller just invalidated. The executor
     * asserts the queue is still empty at clearing time to catch such
     * misuse.
     */
    void clear();

    /** Stops, joins and respawns the pool with @p threads workers
     *  (0 = resolve the default). Pending work is carried over; when
     *  the pool has not started yet only the configured size changes
     *  (it stays lazy). */
    void setThreads(unsigned threads);

    /** Configured worker count (what the pool starts with). */
    unsigned threads() const;

    /** Worker threads actually spawned: 0 until the first submission
     *  that needs a simulation, so a fully store-served sweep reports
     *  0 here while threads() still reports the configured size. */
    unsigned activeWorkers() const;

    /**
     * Attaches the disk-backed result store consulted on every
     * submission: a stored key is served as a ready future (counted
     * in Stats::store_hits) without enqueueing work or starting the
     * pool, and every simulation that does run is recorded back into
     * the store on completion. Pass nullptr to detach. Admin call —
     * do not race concurrent prefetch()/run().
     */
    void attachStore(std::shared_ptr<store::ResultStore> result_store);

    /** Run-count counters (cumulative; never reset by clear()). */
    Stats stats() const;

  private:
    using ResultPtr = std::shared_ptr<const RunResult>;
    using Future = std::shared_future<ResultPtr>;

    Future submit(const RunKey &key);
    void workerLoop();
    /** Spawns the pool at the configured size if it is not running.
     *  Called with mutex_ held. */
    void ensureWorkersStarted();
    void startWorkers(unsigned threads);
    void stopWorkers();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    /** Signalled whenever a task completes (clear() drains on it). */
    std::condition_variable drain_cv_;
    std::deque<std::function<void()>> queue_;
    std::unordered_map<RunKey, Future, RunKeyHash> cache_;
    std::vector<std::thread> workers_;
    /** Tasks currently executing (workers + helping callers). */
    unsigned busy_ = 0;
    bool stop_ = false;
    /** Size the pool spawns at (lazily, on first queued work). */
    unsigned configured_threads_ = 0;
    /** Disk-backed store consulted before enqueueing (may be null). */
    std::shared_ptr<store::ResultStore> store_;
    std::atomic<std::uint64_t> simulations_{0};
    std::atomic<std::uint64_t> store_hits_{0};
    std::atomic<std::uint64_t> failed_runs_{0};
};

} // namespace coopsim::sim

#endif // COOPSIM_SIM_EXECUTOR_HPP
