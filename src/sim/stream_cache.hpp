/**
 * @file
 * StreamCache: the process-wide op-stream memo, held in memory only.
 *
 * Every cell of a sweep used to regenerate its synthetic streams from
 * scratch, even though the cells of a sweep share a handful of
 * distinct streams across schemes, partitioners, banking and sampling
 * modes (fig05's 86 simulations open 156 streams at test scale, 29 of
 * them distinct). The cache generates each distinct stream once,
 * encodes it into immutable in-memory frames (tracefile/
 * trace_format.hpp), and replays it everywhere else through
 * tracefile::FrameDecoder. Drawing 4 M ops from each of the 19 SPEC
 * profiles at e8bfc6f on a 4-vCPU Xeon, generation cost 54-57 ns/op
 * and memo replay 5.9 ns/op.
 *
 * Keying: (workload, app-slot, seed, scale, llc_sets, block_bytes) —
 * exactly what a stream depends on. `workload` is the app profile
 * occupying the slot, NOT the group name, and the geometry is the
 * stream's, NOT the topology row's core count: SyntheticStream
 * content depends only on the profile (its phase lengths scaled by the
 * scale's epoch), the slot's address-space index, the derived seed and
 * the geometry. So two groups sharing an app at the same slot replay
 * one buffer, at any core count whose row has the same geometry (every
 * row at bench and test scale; the 2-16-core rows at paper scale), and
 * a solo run shares slot 0's stream outright.
 *
 * Concurrency follows RunExecutor's RunKey memo: an entry is a
 * shared_future, the first opener builds it, every other opener
 * (across executor threads) waits and replays. Buffers grow lazily,
 * one frame (kFrameOps ops) at a time under a per-entry lock, so a
 * stream is generated only as far as some run has read it, and a run
 * that needs more ops than any before it extends the shared buffer in
 * place while shorter runs replay concurrently. A reader takes that
 * lock only when it has decoded every segment it fetched.
 *
 * The memo is host machinery, not simulation identity: it is wired
 * through the SystemConfig::stream_factory hook, RunKey never sees
 * it, and memoized results are bit-identical to generator-backed ones
 * (the stream-memo tests check it differentially end to end). Nothing
 * outlives the process: a stream is a pure function of its key, so
 * another process regenerates it, and the result store keeps results
 * across processes.
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
        /** App profile name. */
        std::string workload;
        /** Core slot the stream feeds (= its address-space index). */
        std::uint32_t slot = 0;
        /** The run seed (per-stream seeds derive as seed + slot*7919). */
        std::uint64_t seed = 0;
        /** Scale-registry name (phase lengths scale with the epoch). */
        std::string scale;
        /** LLC sets and block size the stream maps its addresses onto.
         *  Topology rows with the same geometry share streams whatever
         *  their core count. */
        trace::StreamGeometry geometry;

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
         *  every stream. */
        bool enabled = true;
        /** Resident-buffer budget; 0 means defaultBudgetBytes(). */
        std::size_t budget_bytes = 0;
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
        /** Always 0: every entry is generated. perfbench's ledger
         *  still prints it. */
        std::uint64_t streams_loaded = 0;
        /** Frames generated and encoded, across all entries (not
         *  printed). */
        std::uint64_t frames_generated = 0;
    };

    /** The process-wide instance (same pattern as RunExecutor). */
    static StreamCache &instance();

    /** Default budget: one Bench-scale stream (~4 MB) per core of the
     *  largest topology row. It is sized for bench scale: at paper
     *  scale, fig05 evicted 42 of the 43 streams it generated. */
    static std::size_t defaultBudgetBytes();

    /** Installs CLI configuration; existing entries are kept. */
    void configure(const Config &config);
    Config config() const;
    bool enabled() const;

    /**
     * The StreamFactory executeRun() installs: routes every per-core
     * stream request of a run through open() under (profile, slot,
     * @p run_seed, @p scale, the requested geometry). @p topology_cores
     * is unused — the geometry the System passes in is what identifies
     * a stream — and is kept only for callers that still pass it.
     */
    StreamFactory factory(std::uint64_t run_seed, RunScale scale,
                          std::uint32_t topology_cores = 0);

    /**
     * Opens the memoized stream for @p key, building it from a
     * SyntheticStream(profile, key.geometry, key.slot, stream_seed) on
     * first use. The returned stream replays from op 0 and extends the
     * shared buffer on demand; seed or app mismatches between the
     * request and an existing entry are descriptive fatals (they would
     * mean two different op sequences under one key).
     */
    std::unique_ptr<core::OpStream> open(const Key &key,
                                         const trace::AppProfile &profile,
                                         std::uint64_t stream_seed);

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
