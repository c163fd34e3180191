/**
 * @file
 * StreamCache: the process-wide op-stream memo.
 *
 * Every cell of a sweep used to regenerate its synthetic streams from
 * scratch at ~74 ns/op, even though a 231-run fig05 sweep shares a
 * handful of distinct streams across schemes, partitioners, banking
 * and sampling modes. The cache generates each distinct stream once,
 * encodes it into immutable in-memory `.cooptrace` frames (the same
 * codec the trace-file subsystem uses — no file round-trip), and
 * replays it everywhere else through tracefile::FrameDecoder at
 * ~4 ns/op.
 *
 * Keying: (workload, app-slot, seed, scale, num_cores). `workload` is
 * the app profile occupying the slot (or "trace:<group>" for
 * file-backed sets), NOT the group name: SyntheticStream content
 * depends only on the profile, the slot's address-space index, the
 * derived seed and the scaled geometry, so two groups sharing an app
 * at the same slot replay one buffer — and a solo run shares its
 * group's slot-0 stream outright.
 *
 * Concurrency follows RunExecutor's RunKey memo: an entry is a
 * shared_future, the first opener builds it, every other opener
 * (across executor threads) waits and replays. Buffers grow lazily,
 * one `.cooptrace` frame (kFrameOps ops) at a time under a per-entry
 * lock, so a stream is generated only as far as some run has read it,
 * and a run that needs more ops than any before it extends the shared
 * buffer in place while shorter runs replay concurrently. A reader
 * takes that lock only when it has decoded every segment it fetched.
 *
 * The memo is host machinery, not simulation identity: it is wired
 * through the SystemConfig::stream_factory hook, RunKey never sees
 * it, and memoized results are bit-identical to generator-backed ones
 * (record→replay losslessness is covered by the tracefile tests; the
 * stream-memo tests re-check it differentially end to end).
 */

#ifndef COOPSIM_SIM_STREAM_CACHE_HPP
#define COOPSIM_SIM_STREAM_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/system.hpp"
#include "tracefile/trace_format.hpp"

namespace coopsim::sim
{

namespace detail
{
struct StreamEntry;
}

class StreamCache
{
  public:
    /** Identity of one memoized stream. */
    struct Key
    {
        /** App profile name; "trace:<group>" for file-backed sets. */
        std::string workload;
        /** Core slot the stream feeds (= its address-space index). */
        std::uint32_t slot = 0;
        /** The run seed (per-stream seeds derive as seed + slot*7919). */
        std::uint64_t seed = 0;
        /** Scale-registry name (phase lengths scale with the epoch). */
        std::string scale;
        /** Topology row the run selected (fixes the LLC geometry). */
        std::uint32_t num_cores = 0;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &key) const;
    };

    /** Host-side knobs; see configure(). */
    struct Config
    {
        /** False (--no-stream-memo) restores per-run generation of
         *  synthetic streams; `trace:` files are still read once per
         *  process. */
        bool enabled = true;
        /** Resident-buffer budget; 0 means defaultBudgetBytes(). */
        std::size_t budget_bytes = 0;
        /** Non-empty (--trace-cache=DIR): spill generated streams to
         *  `.cooptrace` files in DIR at exit and warm-start from them,
         *  so supervised shard workers stop regenerating shared
         *  streams per process. */
        std::string spill_dir;
    };

    /** Cumulative counters, printed as the `# streams:` stderr line. */
    struct Stats
    {
        /** Entries built by running a generator. */
        std::uint64_t streams_generated = 0;
        /** open() calls served from an existing entry. */
        std::uint64_t streams_replayed = 0;
        /** Entries dropped by the LRU to stay under budget. */
        std::uint64_t streams_evicted = 0;
        /** Entries materialized from disk (--trace-cache warm starts
         *  and --trace-dir replay files). */
        std::uint64_t streams_loaded = 0;
        /** Frames generated and encoded, across all entries (not
         *  printed). */
        std::uint64_t frames_generated = 0;
    };

    /** The process-wide instance (same pattern as RunExecutor). */
    static StreamCache &instance();

    /** Default budget: one Bench-scale stream (~4 MB) per core of the
     *  largest topology row — enough that no fig sweep ever evicts. */
    static std::size_t defaultBudgetBytes();

    /** Installs CLI configuration; existing entries are kept. */
    void configure(const Config &config);
    Config config() const;
    bool enabled() const;

    /**
     * The StreamFactory executeRun() installs for synthetic (non
     * trace:) workloads: routes every per-core stream request of a
     * run through open() under (profile, slot, @p run_seed, @p scale,
     * @p topology_cores).
     */
    StreamFactory factory(std::uint64_t run_seed, RunScale scale,
                          std::uint32_t topology_cores);

    /**
     * Opens the memoized stream for @p key, building it from a
     * SyntheticStream(profile, geometry, slot, stream_seed) on first
     * use. The returned stream replays from op 0 and extends the
     * shared buffer on demand; identity mismatches between @p key and
     * an existing entry are descriptive fatals (they would mean two
     * different op sequences under one key).
     */
    std::unique_ptr<core::OpStream> open(const Key &key,
                                         const trace::AppProfile &profile,
                                         const trace::StreamGeometry &geometry,
                                         std::uint64_t stream_seed);

    /**
     * Opens the memoized replay of the trace file at @p path — the
     * only way a `trace:` workload is replayed, memo enabled or not.
     * The file goes through tracefile::loadTraceFile() and is
     * header-checked against @p expected once per process, however
     * many runs replay it; a file that fails either is fatal. A
     * file-backed entry cannot be extended: a run that reads past its
     * last op is a fatal naming the file.
     */
    std::unique_ptr<core::OpStream>
    openTraceFile(const Key &key, const std::string &path,
                  const tracefile::TraceHeader &expected);

    Stats stats() const;

    /** Prints the `# streams:` line to @p out once (idempotent); a
     *  no-op while every counter is zero. */
    void printStats(std::FILE *out);

    /** Resident (budget-accounted) encoded bytes and entry count. */
    std::size_t residentBytes() const;
    std::size_t residentStreams() const;

    /** Drops every entry (streams already handed out keep working). */
    void clear();

    /** Zeroes the counters and re-arms printStats() (tests/benches). */
    void resetStats();

    /** Spills dirty generator-backed entries to the configured
     *  --trace-cache directory now (also runs at process exit). */
    void spillNow();

  private:
    using EntryPtr = std::shared_ptr<detail::StreamEntry>;
    using EntryFuture = std::shared_future<EntryPtr>;

    struct Slot
    {
        EntryFuture future;
        /** Monotonic LRU clock value of the last open()/extension. */
        std::uint64_t touch = 0;
    };

    StreamCache() = default;

    EntryPtr getOrCreate(const Key &key,
                         const std::function<EntryPtr()> &build,
                         bool &created);

    /** Accounting hook for a newly generated frame: counts it,
     *  re-finds @p entry under the cache lock (it may have been
     *  evicted) and, if still resident, charges @p delta and evicts
     *  over budget. */
    void noteExtend(detail::StreamEntry *entry, std::size_t delta);

    /** Evicts ready LRU entries (never @p keep) until under budget.
     *  Caller holds mu_. */
    void evictOverBudget(const detail::StreamEntry *keep);

    std::size_t budgetBytes() const; // caller holds mu_

    std::string spillPath(const Key &key) const;
    /** Loads a spill file into @p entry; false (after a warning for
     *  anything but a missing file) when it should be regenerated. */
    bool tryWarmStart(detail::StreamEntry &entry, const std::string &path);

    friend struct detail::StreamEntry;

    mutable std::mutex mu_;
    Config config_;
    std::unordered_map<Key, Slot, KeyHash> entries_;
    std::uint64_t touch_clock_ = 0;
    std::size_t resident_bytes_ = 0;
    Stats stats_;
    bool stats_printed_ = false;
    bool exit_hook_registered_ = false;
};

} // namespace coopsim::sim

#endif // COOPSIM_SIM_STREAM_CACHE_HPP
