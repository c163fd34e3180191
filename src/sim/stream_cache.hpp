/**
 * @file
 * StreamCache: the process-wide op-stream memo, held in memory only.
 *
 * Every cell of a sweep used to regenerate its synthetic streams from
 * scratch, even though the cells of a sweep share a handful of
 * distinct streams across schemes, partitioners, banking and sampling
 * modes (fig05's 86 simulations open 156 streams at test scale, 29 of
 * them distinct). The cache generates each distinct stream once,
 * encodes it into immutable in-memory segments of kSegmentOps ops
 * (byte layout below), and replays it everywhere else. Drawing 4 M ops
 * from each of the 19 SPEC profiles at e8bfc6f on a 4-vCPU Xeon,
 * generation cost 54-57 ns/op and memo replay 5.9 ns/op.
 *
 * Keying: (workload, app-slot, seed, scale, llc_sets, block_bytes) —
 * exactly what a stream depends on. `workload` is the app profile
 * occupying the slot, NOT the group name, and the geometry is the
 * stream's, NOT the topology row's core count: SyntheticStream
 * content depends only on the profile (its phase lengths scaled by the
 * scale's epoch), the slot's address-space index, the derived seed and
 * the geometry. So two groups sharing an app at the same slot replay
 * one chain, at any core count whose row has the same geometry (every
 * row at bench and test scale; the 2-16-core rows at paper scale), and
 * a solo run shares slot 0's stream outright.
 *
 * A stream is a chain of segments linked by shared_ptr, starting at an
 * empty head segment. The cache's map holds the head only while the
 * stream is resident; a reader holds only the segment it is decoding
 * and follows `next` under the entry lock, generating the next segment
 * when it is the first to reach the end of the chain, and a fork of a
 * reader (a warm-up checkpoint's stream) holds only its position. So a
 * stream is generated only as far as some run has read it, and once
 * the LRU evicts it, every segment behind its slowest reader is freed.
 * The byte budget bounds the resident segments; an evicted stream's
 * segments between its slowest and its fastest reader stay alive,
 * uncounted, until the slowest has passed them.
 *
 * The memo is host machinery, not simulation identity: it is wired
 * through the SystemConfig::stream_factory hook, RunKey never sees
 * it, and memoized results are bit-identical to generator-backed ones
 * (the stream-memo tests check it differentially end to end). Nothing
 * outlives the process: a stream is a pure function of its key, so
 * another process regenerates it, and the result store keeps results
 * across processes.
 *
 * A segment holds its ops back to back, each as
 *
 *   [u8 flags: (delta_len << 1) | is_write]
 *   [varint gap_insts]
 *   [delta_len bytes: zigzag(addr - prev_addr), little-endian]
 *
 * with prev_addr starting at 0 in every segment, so segments decode
 * independently, followed by kDecodeSlack zero bytes. Addresses move
 * in small strides within an app's footprint, so the zigzag delta
 * usually fits 3-4 bytes where the raw address needs 8; gap counts are
 * geometric with a small mean, so the varint usually fits 1 byte.
 */

#ifndef COOPSIM_SIM_STREAM_CACHE_HPP
#define COOPSIM_SIM_STREAM_CACHE_HPP

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/system.hpp"

namespace coopsim::sim
{

// ---------------------------------------------------------------------------
// The segment codec

/** Ops per memoized segment. */
inline constexpr std::size_t kSegmentOps = 4096;

/** Zero bytes a segment carries past its last op: the decoder's
 *  unconditional 8-byte delta load reads up to 8 bytes past the
 *  op it decodes. */
inline constexpr std::size_t kDecodeSlack = 8;

/** Maps signed deltas to small unsigned values (0, -1, 1, -2, ...). */
constexpr std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

constexpr std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/** Bytes needed for the little-endian encoding of @p z (0 for zero). */
inline std::size_t
deltaLen(std::uint64_t z)
{
    if (z == 0)
        return 0;
    return (64u - static_cast<unsigned>(std::countl_zero(z)) + 7u) / 8u;
}

/** Replaces @p out with the encoding of @p count ops (no slack; its
 *  capacity is reused, so encoding segment after segment through one
 *  buffer allocates once). */
void encodeOps(const core::MemOp *ops, std::size_t count, std::string &out);

/**
 * Decodes @p count ops from the encoding at @p data + @p pos into
 * @p out and returns the position after them. @p prev_addr carries the
 * address chain: 0 at a segment's start. The encoding must be followed
 * by kDecodeSlack readable bytes.
 */
std::size_t decodeOps(const char *data, std::size_t pos,
                      std::uint64_t &prev_addr, core::MemOp *out,
                      std::size_t count);

// ---------------------------------------------------------------------------
// The memo

namespace detail
{
struct StreamEntry;
struct StreamSegment;
class MemoReplayStream;
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

    /** Counters, printed as the `# streams:` stderr line. */
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
        /** Segments generated and encoded, across all entries (not
         *  printed). */
        std::uint64_t frames_generated = 0;
        /** Segments alive now, resident or held by a reader (a gauge:
         *  resetStats() leaves it alone; not printed). */
        std::uint64_t segments_live = 0;
    };

    /** @param budget_bytes Resident-segment budget (see
     *  defaultBudgetBytes()). */
    explicit StreamCache(std::size_t budget_bytes = defaultBudgetBytes());

    StreamCache(const StreamCache &) = delete;
    StreamCache &operator=(const StreamCache &) = delete;

    /** The process-wide instance (same pattern as RunExecutor). */
    static StreamCache &instance();

    /** Default budget: one Bench-scale stream (~4 MB) per core of the
     *  largest topology row. */
    static std::size_t defaultBudgetBytes();

    /**
     * The StreamFactory executeRun() installs: routes every per-core
     * stream request of a run through open() under (profile, slot,
     * @p run_seed, @p scale, the requested geometry). @p topology_cores
     * is unused — the geometry the System passes in is what identifies
     * a stream — and is kept only for callers that still pass it. The
     * cache must outlive every stream the factory opens.
     */
    StreamFactory factory(std::uint64_t run_seed, RunScale scale,
                          std::uint32_t topology_cores = 0);

    /**
     * Opens the memoized stream for @p key, generating it from a
     * SyntheticStream(profile, key.geometry, key.slot, stream_seed) as
     * readers pull it. The returned stream replays from op 0; seed or
     * app mismatches between the request and an existing entry are
     * descriptive fatals (they would mean two different op sequences
     * under one key).
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
    struct Slot
    {
        std::shared_ptr<detail::StreamEntry> entry;
        /** The empty segment every reader of the entry starts from. */
        std::shared_ptr<detail::StreamSegment> head;
        /** Monotonic LRU clock value of the last open()/extension. */
        std::uint64_t touch = 0;
    };

    /** The slot of @p key, made for (@p profile, @p stream_seed) and
     *  counted as generated if absent, else counted as replayed if
     *  @p count_replay; touched either way. Caller holds mu_. */
    Slot &residentSlot(const Key &key, const trace::AppProfile &profile,
                       std::uint64_t stream_seed, bool count_replay);

    /** The segment @p index links past the head of @p entry's stream,
     *  for a fork that holds only its position: walked from the
     *  resident chain, which @p entry becomes, or from a new one if the
     *  LRU evicted the stream. */
    std::shared_ptr<detail::StreamSegment>
    seek(std::shared_ptr<detail::StreamEntry> &entry, std::size_t index);

    /** Accounting hook for a newly generated segment: counts it and,
     *  if @p entry is still resident, charges @p delta and evicts over
     *  budget, moving each victim's head into @p evicted for the
     *  caller to drop outside the locks. */
    void noteExtend(const detail::StreamEntry &entry, std::size_t delta,
                    std::vector<std::shared_ptr<detail::StreamSegment>>
                        &evicted);

    /** Evicts LRU entries (never @p keep) until under budget, moving
     *  their heads into @p evicted. Caller holds mu_. */
    void evictOverBudget(const detail::StreamEntry *keep,
                         std::vector<std::shared_ptr<detail::StreamSegment>>
                             &evicted);

    friend struct detail::StreamEntry;
    friend class detail::MemoReplayStream;

    const std::size_t budget_bytes_;
    /** Stats::segments_live, kept by the segments themselves (declared
     *  before entries_, whose chains outlive it otherwise). */
    std::atomic<std::uint64_t> segments_live_{0};
    mutable std::mutex mu_;
    std::unordered_map<Key, Slot, KeyHash> entries_;
    std::uint64_t touch_clock_ = 0;
    std::size_t resident_bytes_ = 0;
    Stats stats_;
    bool stats_printed_ = false;
};

} // namespace coopsim::sim

#endif // COOPSIM_SIM_STREAM_CACHE_HPP
