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
 *
 * Warm-up sharing: group runs that differ only in the epoch decision's
 * settings (partitioner, threshold, threshold_mode) are siblings. No
 * epoch fires before measurement starts, so their warm-ups are the
 * same simulation: one sibling warms up and publishes a copy for those
 * still pending, and they fork it (System::fork) instead of repeating
 * the warm-up. At most one warm-up of a sibling set is in flight, and
 * a sibling that starts meanwhile waits for it. Siblings whose
 * decision reads no demands (partition::readsDemands) are twins: they
 * all run equalshare's decision, so they are one simulation, run by
 * whichever starts first and shared by the rest. See
 * docs/ARCHITECTURE.md, "Warm-up sharing".
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

/** Hashes every RunKey field, mixing each into the last. */
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

/**
 * Runs the simulation @p key describes from scratch: no result cache,
 * no store and no warm-up sharing (it still replays memoized op
 * streams, which are bit-identical to generated ones). The reference
 * the executor's shared path is tested against.
 */
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
        /** Runs started (memo/store misses), including ones that
         *  forked a checkpoint, took a twin's result or failed. */
        std::uint64_t simulations = 0;
        /** Submissions served from the attached result store. */
        std::uint64_t store_hits = 0;
        /** Simulations that ended in a RunFailure instead of a
         *  result (their futures rethrow; nothing is stored). */
        std::uint64_t failed_runs = 0;
        /** Simulations that started from a sibling's published
         *  warm-up instead of warming up themselves. */
        std::uint64_t forked = 0;
        /** Runs that took the result of a twin (a sibling whose
         *  decision also reads no demands) instead of simulating. */
        std::uint64_t reused = 0;
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
     * before collecting any result. The batch is queued under one
     * lock, so none of its runs starts before all its siblings are
     * counted.
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

    /** Warmed Systems published for pending siblings right now: 0
     *  once every queued run has started. */
    std::size_t checkpoints() const;

  private:
    using ResultPtr = std::shared_ptr<const RunResult>;
    using Future = std::shared_future<ResultPtr>;

    /** The siblings of one warm key, its twins included (see the file
     *  comment). */
    struct SiblingSet
    {
        /** Siblings that have neither warmed up nor forked, a twin
         *  class counting once; a waiting sibling stays counted until
         *  it forks. */
        std::uint32_t pending = 0;
        /** Those whose epoch decision reads the utility monitors. */
        std::uint32_t pending_readers = 0;
        /** Twins queued and not yet started. */
        std::uint32_t twins_pending = 0;
        /** Whether a sibling is warming up: at most one is. */
        bool warming = false;
        /** A warmed System siblings fork, or null, and whether it kept
         *  its utility monitors. */
        std::shared_ptr<const System> checkpoint;
        bool with_monitors = false;
        /** The first twin's result, null if it failed; not valid until
         *  that twin starts. */
        std::shared_future<ResultPtr> twin;
    };

    /** Queues @p key unless it is cached or stored. Called with mutex_
     *  held; the caller wakes the pool. */
    Future submit(const RunKey &key);
    /** Runs @p key, or takes its twin's result. */
    ResultPtr simulate(const RunKey &key);
    /** Runs group run @p key, forking a sibling's warm-up or warming up
     *  for them; @p reads says whether its decision reads demands. */
    RunResult simulateSibling(const RunKey &key, bool reads);
    /** Ends the warm-up in flight under @p warm: publishes a copy of
     *  @p warmed (null if the warm-up failed) if a pending sibling can
     *  fork it, and wakes the siblings waiting. @p monitored says
     *  whether @p warmed's LLC holds monitors. */
    void endWarmUp(const RunKey &warm, const System *warmed,
                   bool monitored);
    /** Drops @p warm's checkpoint once no sibling is pending, and its
     *  set once no sibling is warming up or unstarted either. Called
     *  with mutex_ held. */
    void release(const RunKey &warm);
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
    /** Signalled whenever a warm-up in flight ends. */
    std::condition_variable warm_cv_;
    std::deque<std::function<void()>> queue_;
    std::unordered_map<RunKey, Future, RunKeyHash> cache_;
    /** Warm key -> its siblings; an entry lives while one is pending,
     *  warming up or unstarted. */
    std::unordered_map<RunKey, SiblingSet, RunKeyHash> sets_;
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
    std::atomic<std::uint64_t> forked_{0};
    std::atomic<std::uint64_t> reused_{0};
};

} // namespace coopsim::sim

#endif // COOPSIM_SIM_EXECUTOR_HPP
