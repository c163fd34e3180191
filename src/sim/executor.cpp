#include "sim/executor.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "common/logging.hpp"
#include "sim/stream_cache.hpp"
#include "store/result_store.hpp"
#include "trace/workloads.hpp"

namespace coopsim::sim
{

namespace
{

/** One combiner step: boost's hash_combine step, then two steps of
 *  the splitmix64 finaliser. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= (h >> 30);
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= (h >> 27);
    return h;
}

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("COOPSIM_THREADS")) {
        char *end = nullptr;
        const unsigned long n = std::strtoul(env, &end, 10);
        // Same contract as --threads=N: garbage or an out-of-range
        // count is a descriptive fatal, never a silent fallback to
        // hardware_concurrency (a sweep sized by a typo'd variable
        // would otherwise oversubscribe or serialise the host).
        if (end == env || *end != '\0' || n < 1 || n > 1024) {
            COOPSIM_FATAL("invalid COOPSIM_THREADS value '", env,
                          "' (expected an integer in [1, 1024])");
        }
        return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/** Consumed once, by the first RunExecutor::instance() construction. */
unsigned g_initial_threads = 0;

/**
 * The key a group run shares its warm-up under: the canonical
 * lookahead variant, with the default threshold and threshold_mode. It
 * builds the utility monitors wherever any partitioner reads them, so
 * its warm-up can stand in for every sibling's.
 */
RunKey
warmKeyOf(const RunKey &key)
{
    RunKey warm = key;
    const RunKey defaults;
    warm.partitioner = partition::Partitioner::Lookahead;
    warm.threshold = defaults.threshold;
    warm.threshold_mode = defaults.threshold_mode;
    return warm;
}

/**
 * Whether @p key's epoch decision reads the utility monitors
 * (partition::readsDemands on its topology row). Never fatal: a key
 * without a row fails when it runs, like any other bad key.
 */
bool
readsDemands(const RunKey &key)
{
    for (const Topology &row : topologyTable()) {
        if (row.max_cores >= key.num_cores) {
            return partition::readsDemands(key.partitioner, key.num_cores,
                                           row.llc_ways);
        }
    }
    return false;
}

/** The System executeRun() runs for @p key, not yet warmed up. */
std::unique_ptr<System>
buildSystem(const RunKey &key)
{
    if (key.kind == RunKey::Kind::Group) {
        // Registry resolution (not trace::groupByName), so a custom
        // group added to api::workloadRegistry() runs like a built-in.
        const trace::WorkloadGroup &group =
            api::workloadRegistry().get(key.name);
        const auto num_cores =
            static_cast<std::uint32_t>(group.apps.size());
        SystemConfig config = runConfig(key);
        COOPSIM_ASSERT(config.num_cores == num_cores,
                       "group size does not match system");
        if (StreamCache::instance().enabled()) {
            config.stream_factory =
                StreamCache::instance().factory(key.seed, key.scale);
        }
        return std::make_unique<System>(config,
                                        trace::groupProfiles(group));
    }

    // Solo: the app owns the whole (unmanaged) LLC of the system it
    // will later share. Its stream is slot 0's on that system's
    // geometry, which the stream memo keys on, so the solo replays the
    // buffer of any run with the app in slot 0 on that geometry, at
    // any core count (the per-stream seed derivation makes them the
    // same op sequence).
    SystemConfig config = runConfig(key);
    config.num_cores = 1;
    config.llc.num_cores = 1;
    if (StreamCache::instance().enabled()) {
        config.stream_factory =
            StreamCache::instance().factory(key.seed, key.scale);
    }
    return std::make_unique<System>(
        config, std::vector<trace::AppProfile>{trace::specProfile(key.name)});
}

} // namespace

SystemConfig
runConfig(const RunKey &key)
{
    SystemConfig config =
        makeSystemConfig(key.num_cores, key.scheme, key.scale);
    config.llc.threshold = key.threshold;
    config.llc.threshold_mode = key.threshold_mode;
    config.llc.partitioner = key.partitioner;
    config.llc.repl = key.repl;
    config.llc.gating = key.gating;
    config.llc.slice_hash = key.slice_hash;
    config.seed = key.seed;
    config.sampling = key.sampling;
    return config;
}

std::size_t
RunKeyHash::operator()(const RunKey &key) const
{
    std::uint64_t h = 0x243f6a8885a308d3ull;
    h = mix(h, static_cast<std::uint64_t>(key.kind));
    h = mix(h, key.scheme.size());
    for (const char c : key.scheme) {
        h = mix(h, static_cast<std::uint64_t>(c));
    }
    for (const char c : key.name) {
        h = mix(h, static_cast<std::uint64_t>(c));
    }
    h = mix(h, key.num_cores);
    h = mix(h, static_cast<std::uint64_t>(key.scale));
    // Fold -0.0 to +0.0: the defaulted operator== treats them as equal,
    // so they must hash identically (hash/equality container contract).
    const double threshold =
        key.threshold == 0.0 ? 0.0 : key.threshold;
    std::uint64_t threshold_bits;
    static_assert(sizeof(threshold_bits) == sizeof(threshold));
    std::memcpy(&threshold_bits, &threshold, sizeof(threshold_bits));
    h = mix(h, threshold_bits);
    h = mix(h, static_cast<std::uint64_t>(key.threshold_mode));
    h = mix(h, static_cast<std::uint64_t>(key.partitioner));
    h = mix(h, static_cast<std::uint64_t>(key.repl));
    h = mix(h, static_cast<std::uint64_t>(key.gating));
    h = mix(h, key.seed);
    h = mix(h, static_cast<std::uint64_t>(key.slice_hash));
    h = mix(h, static_cast<std::uint64_t>(key.sampling));
    return static_cast<std::size_t>(h);
}

RunFailure::RunFailure(RunKey key, const std::string &reason)
    : std::runtime_error("run failed: " + api::formatRunKey(key) +
                         ": " + reason),
      key_(std::move(key))
{
}

RunResult
executeRun(const RunKey &key)
{
    return buildSystem(key)->run();
}

// ---------------------------------------------------------------------------
// RunExecutor

RunExecutor::RunExecutor(unsigned threads)
    : configured_threads_(threads > 0 ? threads : defaultThreadCount())
{
    // The pool starts lazily, on the first submission that actually
    // needs a simulation — a sweep served entirely from the attached
    // result store never spawns a thread.
}

RunExecutor::~RunExecutor()
{
    // Exiting on a fatal: the failing thread may be a worker (joining
    // it from itself throws), and others may wait forever on the run
    // it abandoned. End the process here instead of joining. Exit
    // handlers registered after the pool, like the CLI's store save,
    // have already run; the stream memo's `# streams:` hook, registered
    // before the pool, never runs.
    if (::coopsim::detail::fatalExiting() && !workers_.empty()) {
        std::fflush(nullptr);
        std::_Exit(1);
    }
    stopWorkers();
}

RunExecutor &
RunExecutor::instance()
{
    // Construct the workload tables and api registries (function-local
    // statics executeRun reads — System's constructor resolves the
    // scheme name through api::schemeRegistry()) before the pool:
    // statics are destroyed in reverse construction order, so the
    // executor's destructor — which joins workers that may still be
    // inside a run at process exit — must come first, while those
    // tables are still alive. The stream memo is constructed here for
    // the same reason: workers replay memoized streams mid-run.
    api::warmAllRegistries();
    StreamCache::instance();
    static RunExecutor executor(g_initial_threads);
    return executor;
}

void
RunExecutor::requestInitialThreads(unsigned threads)
{
    g_initial_threads = threads;
}

void
RunExecutor::startWorkers(unsigned threads)
{
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

void
RunExecutor::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &worker : workers_) {
        worker.join();
    }
    workers_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
}

void
RunExecutor::setThreads(unsigned threads)
{
    const unsigned target = threads > 0 ? threads : defaultThreadCount();
    configured_threads_ = target;
    if (workers_.empty() || target == workers_.size()) {
        // Not yet started (stays lazy at the new size) or already
        // at size.
        return;
    }
    // Workers finish their current run and exit; queued work is kept
    // and picked up by the new pool.
    stopWorkers();
    startWorkers(target);
}

unsigned
RunExecutor::threads() const
{
    return configured_threads_;
}

unsigned
RunExecutor::activeWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<unsigned>(workers_.size());
}

void
RunExecutor::ensureWorkersStarted()
{
    if (workers_.empty()) {
        startWorkers(configured_threads_);
    }
}

void
RunExecutor::attachStore(std::shared_ptr<store::ResultStore> result_store)
{
    std::lock_guard<std::mutex> lock(mutex_);
    store_ = std::move(result_store);
}

RunExecutor::Stats
RunExecutor::stats() const
{
    Stats stats;
    stats.simulations = simulations_.load(std::memory_order_relaxed);
    stats.store_hits = store_hits_.load(std::memory_order_relaxed);
    stats.failed_runs = failed_runs_.load(std::memory_order_relaxed);
    stats.forked = forked_.load(std::memory_order_relaxed);
    stats.reused = reused_.load(std::memory_order_relaxed);
    return stats;
}

std::size_t
RunExecutor::checkpoints() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t published = 0;
    for (const auto &entry : sets_) {
        published += entry.second.checkpoint != nullptr ? 1 : 0;
    }
    return published;
}

RunExecutor::ResultPtr
RunExecutor::simulate(const RunKey &key)
{
    if (key.kind != RunKey::Kind::Group) {
        // Solo runs have no siblings.
        return std::make_shared<const RunResult>(executeRun(key));
    }
    if (readsDemands(key)) {
        return std::make_shared<const RunResult>(simulateSibling(key, true));
    }
    // A demand-free run: the first of its twins to start simulates them
    // all, and the rest take its result, waiting while it runs.
    const RunKey warm = warmKeyOf(key);
    std::promise<ResultPtr> first;
    std::shared_future<ResultPtr> twin;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SiblingSet &set = sets_.at(warm);
        --set.twins_pending;
        twin = set.twin;
        if (!twin.valid()) {
            set.twin = first.get_future().share();
        }
        release(warm);
    }
    if (twin.valid()) {
        if (ResultPtr result = twin.get()) {
            reused_.fetch_add(1, std::memory_order_relaxed);
            return result;
        }
        // The first twin failed: this one runs by itself, so a failure
        // names its own key.
        return std::make_shared<const RunResult>(executeRun(key));
    }
    ResultPtr result;
    try {
        result =
            std::make_shared<const RunResult>(simulateSibling(key, false));
    } catch (...) {
        first.set_value(nullptr);
        throw;
    }
    first.set_value(result);
    return result;
}

RunResult
RunExecutor::simulateSibling(const RunKey &key, bool reads)
{
    const RunKey warm = warmKeyOf(key);
    std::shared_ptr<const System> checkpoint;
    bool canonical = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        SiblingSet &set = sets_.at(warm);
        // A warm-up in flight is this run's own, begun earlier: wait for
        // it. Still counted in pending, this run gets a copy published.
        warm_cv_.wait(lock, [&set] { return !set.warming; });
        --set.pending;
        set.pending_readers -= reads ? 1 : 0;
        if (set.checkpoint != nullptr && (set.with_monitors || !reads)) {
            checkpoint = set.checkpoint;
        } else {
            // Warm up as the canonical variant when this run's own
            // decision would not build monitors a pending sibling reads.
            canonical = !reads && set.pending_readers > 0;
            set.warming = true;
        }
        release(warm);
    }

    if (checkpoint != nullptr) {
        forked_.fetch_add(1, std::memory_order_relaxed);
        const std::unique_ptr<System> system =
            checkpoint->fork(runConfig(key));
        COOPSIM_ASSERT(system != nullptr, "a published warm-up did not fork");
        checkpoint.reset();
        return system->measure();
    }
    std::unique_ptr<System> system;
    try {
        system = buildSystem(canonical ? warm : key);
        system->warmUp();
        // The canonical variant reads demands wherever any sibling does.
        endWarmUp(warm, system.get(), reads || canonical);
    } catch (...) {
        // A failed warm-up leaves its waiters to warm up themselves.
        endWarmUp(warm, nullptr, false);
        throw;
    }
    if (!canonical) {
        return system->measure();
    }
    const std::unique_ptr<System> mine = system->fork(runConfig(key));
    if (mine == nullptr) {
        // A scheme that cannot fork: the canonical warm-up does not
        // stand for this run's own.
        return executeRun(key);
    }
    system.reset();
    return mine->measure();
}

void
RunExecutor::endWarmUp(const RunKey &warm, const System *warmed,
                       bool monitored)
{
    // A sibling may fork the copy only if it holds the monitors the
    // sibling's decision reads. They are most of a banked checkpoint's
    // bytes, so the copy keeps them only for a pending reader. A
    // checkpoint already published lacks them (this run would have
    // forked it otherwise), so a copy replaces it only to add them. No
    // sibling leaves pending while this warm-up is in flight, so what
    // is decided here still holds once the copy is made.
    std::shared_ptr<const System> copy;
    bool with_monitors = false;
    if (warmed != nullptr) {
        bool useful = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const SiblingSet &set = sets_.at(warm);
            with_monitors = monitored && set.pending_readers > 0;
            useful = set.pending > 0 &&
                     (set.checkpoint == nullptr || with_monitors);
        }
        if (useful) {
            SystemConfig variant = warmed->config();
            if (!with_monitors) {
                variant.llc.partitioner = partition::Partitioner::EqualShare;
            }
            copy = warmed->fork(variant);
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SiblingSet &set = sets_.at(warm);
        if (copy != nullptr) {
            set.checkpoint = std::move(copy);
            set.with_monitors = with_monitors;
        }
        set.warming = false;
        release(warm);
    }
    warm_cv_.notify_all();
}

void
RunExecutor::release(const RunKey &warm)
{
    const auto it = sets_.find(warm);
    SiblingSet &set = it->second;
    if (set.pending > 0) {
        return;
    }
    set.checkpoint.reset();
    if (!set.warming && set.twins_pending == 0) {
        sets_.erase(it);
    }
}

void
RunExecutor::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_) {
            return;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
        lock.unlock();
        task();
        lock.lock();
        --busy_;
        drain_cv_.notify_all();
    }
}

RunExecutor::Future
RunExecutor::submit(const RunKey &key)
{
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
        return it->second;
    }

    // Disk-backed store lookup: a stored key becomes a ready future —
    // nothing is queued and the pool is not started.
    if (store_ != nullptr) {
        if (std::optional<RunResult> hit = store_->find(key)) {
            std::promise<ResultPtr> promise;
            promise.set_value(
                std::make_shared<const RunResult>(std::move(*hit)));
            Future future = promise.get_future().share();
            cache_.emplace(key, future);
            store_hits_.fetch_add(1, std::memory_order_relaxed);
            return future;
        }
    }

    auto task = std::make_shared<std::packaged_task<ResultPtr()>>(
        [this, key, result_store = store_]() -> ResultPtr {
            simulations_.fetch_add(1, std::memory_order_relaxed);
            // Task-boundary failure contract: any exception from the
            // simulation becomes a RunFailure naming the key, stored
            // on this run's future by the packaged_task machinery —
            // the worker thread survives, other runs proceed, and
            // nothing is recorded into the store for the failed key.
            try {
                ResultPtr result = simulate(key);
                if (result_store != nullptr) {
                    result_store->put(key, *result);
                }
                return result;
            } catch (const RunFailure &) {
                failed_runs_.fetch_add(1, std::memory_order_relaxed);
                throw;
            } catch (const std::exception &e) {
                failed_runs_.fetch_add(1, std::memory_order_relaxed);
                throw RunFailure(key, e.what());
            } catch (...) {
                failed_runs_.fetch_add(1, std::memory_order_relaxed);
                throw RunFailure(key, "unknown exception");
            }
        });
    Future future = task->get_future().share();
    cache_.emplace(key, future);
    if (key.kind == RunKey::Kind::Group) {
        // A twin class is one sibling of its set: only its first member
        // to start warms up or forks.
        SiblingSet &set = sets_[warmKeyOf(key)];
        if (readsDemands(key)) {
            ++set.pending;
            ++set.pending_readers;
        } else if (set.twins_pending++ == 0 && !set.twin.valid()) {
            ++set.pending;
        }
    }
    queue_.emplace_back([task] { (*task)(); });
    ensureWorkersStarted();
    return future;
}

void
RunExecutor::prefetch(const std::vector<RunKey> &keys)
{
    // One lock for the whole batch, so that every sibling in it is
    // counted before any of them starts.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const RunKey &key : keys) {
            submit(key);
        }
    }
    cv_.notify_all();
}

const RunResult &
RunExecutor::run(const RunKey &key)
{
    Future future;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        future = submit(key);
    }
    cv_.notify_one();

    // Help drain the queue while waiting: with every worker busy on
    // other runs of the sweep, the blocked caller contributes a core
    // instead of idling (and a zero-worker pool still makes progress).
    using namespace std::chrono_literals;
    while (future.wait_for(0s) != std::future_status::ready) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!queue_.empty()) {
                task = std::move(queue_.front());
                queue_.pop_front();
                ++busy_;
            }
        }
        if (task) {
            task();
            std::lock_guard<std::mutex> lock(mutex_);
            --busy_;
            drain_cv_.notify_all();
        } else {
            future.wait();
        }
    }
    return *future.get();
}

void
RunExecutor::clear()
{
    // Drain first: wait until no task is queued and no worker (or
    // helping caller) is inside a run, so nothing can complete into —
    // or be submitted against — the cache being cleared. See the
    // header contract: callers must not race clear() with concurrent
    // prefetch()/run() from other threads.
    std::unique_lock<std::mutex> lock(mutex_);
    drain_cv_.wait(lock,
                   [this] { return queue_.empty() && busy_ == 0; });
    COOPSIM_ASSERT(queue_.empty() && busy_ == 0,
                   "clear() raced a concurrent submission; the "
                   "executor must be drained before the cache is "
                   "cleared");
    cache_.clear();
    sets_.clear();
}

} // namespace coopsim::sim
