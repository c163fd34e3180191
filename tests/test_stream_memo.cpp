/**
 * @file
 * Tests for the op-stream memo (sim::StreamCache); the segment codec
 * it holds its streams in is tested in test_tracefile.cpp:
 *
 *  - memoized runs are bit-identical (store::formatResult) to runs
 *    whose System generates its own streams, over a {group} x
 *    {scheme} x {partitioner} x {sampling} matrix that spans 2..32
 *    cores and set+op sampling;
 *  - a fresh cache generates exactly one stream per distinct
 *    (workload, slot, seed, scale, geometry) key, replays the rest,
 *    serves a solo run from its group's slot-0 stream, and shares
 *    streams across topology rows with the same geometry;
 *  - a tiny budget forces whole-stream LRU eviction without changing
 *    any result, and once a stream is evicted its reader keeps alive
 *    only the segment it decodes, and a fork of the reader (a warm-up
 *    checkpoint's stream) none until it pulls, when it finds its op
 *    again in the reopened stream;
 *  - serial executeRun() and a multi-threaded RunExecutor produce
 *    bit-identical results through the process-wide memo;
 *  - a stream is generated one segment at a time, only as far as its
 *    furthest reader, and readers that race a thread extending the
 *    entry all see the generator's exact sequence;
 *  - open() rejects a stream seed its key does not derive, and a
 *    second profile under one key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.hpp"
#include "common/logging.hpp"
#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "store/result_store.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"

using namespace coopsim;
using sim::RunKey;
using sim::StreamCache;

namespace
{

// ---------------------------------------------------------------------------
// Memo helpers

api::ExperimentSpec
testSpec()
{
    api::ExperimentSpec spec;
    spec.scale = "test";
    return spec;
}

RunKey
groupKey(const std::string &name, const std::string &scheme,
         const std::string &partitioner = "lookahead",
         const std::string &sampling = "exact")
{
    api::Cell cell;
    cell.scheme = scheme;
    cell.partitioner = partitioner;
    cell.sampling = sampling;
    return api::groupRunKey(testSpec(), trace::groupByName(name), cell);
}

/** The store line of @p key run on the System executeRun() builds,
 *  with @p streams as its op source: empty, the System generates every
 *  stream itself. */
std::string
runFormatted(const RunKey &key, sim::StreamFactory streams = {})
{
    sim::SystemConfig config = sim::runConfig(key);
    config.stream_factory = std::move(streams);
    std::vector<trace::AppProfile> profiles;
    if (key.kind == RunKey::Kind::Group) {
        profiles = trace::groupProfiles(trace::groupByName(key.name));
    } else {
        config.num_cores = 1;
        config.llc.num_cores = 1;
        profiles = {trace::specProfile(key.name)};
    }
    return store::formatResult(sim::System(config, profiles).run());
}

/** The store line of @p key with its streams replayed from @p cache. */
std::string
memoized(StreamCache &cache, const RunKey &key)
{
    return runFormatted(key, cache.factory(key.seed, key.scale));
}

/** One stream opened straight through StreamCache::open(): slot 0 of
 *  G2-1's first app, under the run seed @p seed. */
struct DirectStream
{
    StreamCache::Key key;
    trace::AppProfile profile;
    std::uint64_t stream_seed = 0;

    explicit DirectStream(std::uint64_t seed,
                          trace::StreamGeometry geometry = {})
        : profile(trace::specProfile(trace::groupByName("G2-1").apps[0]))
    {
        key.workload = profile.name;
        key.slot = 0;
        key.seed = seed;
        key.scale = "test";
        key.geometry = geometry;
        stream_seed = seed; // slot 0: seed + 0 * 7919
    }

    std::unique_ptr<core::OpStream>
    open(StreamCache &cache) const
    {
        return cache.open(key, profile, stream_seed);
    }

    /** The first @p n ops straight from the generator. */
    std::vector<core::MemOp>
    reference(std::size_t n) const
    {
        trace::SyntheticStream generator(profile, key.geometry, key.slot,
                                         stream_seed);
        std::vector<core::MemOp> ops(n);
        std::size_t got = 0;
        while (got < n) {
            got += generator.nextBatch(ops.data() + got, n - got);
        }
        return ops;
    }
};

/** Pulls @p n ops from @p stream, @p batch at a time. */
std::vector<core::MemOp>
pull(core::OpStream &stream, std::size_t n, std::size_t batch)
{
    std::vector<core::MemOp> ops(n);
    std::size_t got = 0;
    while (got < n) {
        got += stream.nextBatch(ops.data() + got, std::min(batch, n - got));
    }
    return ops;
}

/** Index of the first op where @p a and @p b differ, else the shorter
 *  one's size. */
std::size_t
firstMismatch(const std::vector<core::MemOp> &a,
              const std::vector<core::MemOp> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].gap_insts != b[i].gap_insts || a[i].addr != b[i].addr ||
            a[i].type != b[i].type)
            return i;
    }
    return n;
}

/** Throws FatalError instead of exiting while in scope. */
struct ThrowOnFatal
{
    ThrowOnFatal() { setThrowOnFatal(true); }
    ~ThrowOnFatal() { setThrowOnFatal(false); }
};

} // namespace

// ---------------------------------------------------------------------------
// Differential bit-identity: memoized vs generated

TEST(StreamMemo, MemoizedRunsAreBitIdenticalAcrossMatrix)
{
    StreamCache cache;
    const std::vector<std::string> groups = {"G2-1", "G4-1", "G8-mem1",
                                             "G32-mix1"};
    const std::vector<std::string> schemes = {"coop", "ucp"};
    const std::vector<std::string> partitioners = {"lookahead", "greedy"};
    const std::vector<std::string> samplings = {"exact", "setop"};

    for (const std::string &group : groups) {
        for (const std::string &scheme : schemes) {
            for (const std::string &partitioner : partitioners) {
                for (const std::string &sampling : samplings) {
                    const RunKey key =
                        groupKey(group, scheme, partitioner, sampling);
                    const std::string plain = runFormatted(key);
                    EXPECT_EQ(plain, memoized(cache, key))
                        << group << " " << scheme << " (cold memo)";
                    // And again, replaying the now-warm streams.
                    EXPECT_EQ(plain, memoized(cache, key))
                        << group << " " << scheme << " (warm memo)";
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stream accounting: generated == distinct streams, solos share

TEST(StreamMemo, GeneratesOncePerDistinctStreamAndSharesWithSolos)
{
    StreamCache cache;

    // 4 runs of G2-1 (2 streams) + 4 runs of G4-1 (4 streams), all
    // sharing one seed/scale: 6 distinct streams, everything else a
    // replay.
    for (const char *group : {"G2-1", "G4-1"}) {
        for (const char *scheme : {"coop", "ucp"}) {
            for (const char *partitioner : {"lookahead", "greedy"}) {
                memoized(cache, groupKey(group, scheme, partitioner));
            }
        }
    }

    StreamCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 6u);
    // 4 runs x 2 cores + 4 runs x 4 cores = 24 stream openings.
    EXPECT_EQ(stats.streams_generated + stats.streams_replayed, 24u);
    EXPECT_EQ(stats.streams_evicted, 0u);
    EXPECT_EQ(cache.residentStreams(), 6u);

    // A solo on the 2-core topology replays its group's slot-0
    // stream: same app, slot 0, seed, scale and geometry mean the same
    // op sequence, so nothing new is generated.
    const std::string app = trace::groupByName("G2-1").apps[0];
    const RunKey solo = api::soloRunKey(testSpec(), app, 2);
    EXPECT_EQ(runFormatted(solo), memoized(cache, solo));
    stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 6u);
    EXPECT_EQ(cache.residentStreams(), 6u);
}

TEST(StreamMemo, TopologyRowsWithOneGeometryShareStreams)
{
    StreamCache cache;

    // scaling.spec's mixes are cyclic draws from one tier pool, so
    // G8-mem1's apps are G16-mem1's first 8 slots; at test scale both
    // rows have 128 sets of 64 B blocks.
    const trace::WorkloadGroup &g8 = trace::groupByName("G8-mem1");
    const trace::WorkloadGroup &g16 = trace::groupByName("G16-mem1");
    ASSERT_TRUE(std::equal(g8.apps.begin(), g8.apps.end(),
                           g16.apps.begin()));
    const std::vector<RunKey> keys = {
        groupKey("G8-mem1", "coop"),
        api::soloRunKey(testSpec(), g8.apps[0], 16),
        groupKey("G16-mem1", "coop"),
    };

    EXPECT_EQ(runFormatted(keys[0]), memoized(cache, keys[0]));
    EXPECT_EQ(cache.stats().streams_generated, 8u);
    // The solo runs on the 16-core row, which no run has used yet, and
    // still replays G8-mem1's slot-0 stream.
    EXPECT_EQ(runFormatted(keys[1]), memoized(cache, keys[1]));
    EXPECT_EQ(cache.stats().streams_generated, 8u);
    // G16-mem1 replays all 8 and generates only its last 8 slots.
    EXPECT_EQ(runFormatted(keys[2]), memoized(cache, keys[2]));
    StreamCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 16u);
    EXPECT_EQ(stats.streams_replayed, 9u);
    EXPECT_EQ(cache.residentStreams(), 16u);

    // Geometry is part of a stream's identity: the same app, slot and
    // seed on two geometries are two entries.
    StreamCache fresh;
    const DirectStream test_rows(42, {128, 64});
    const DirectStream bench_rows(42, {512, 64});
    EXPECT_EQ(firstMismatch(pull(*test_rows.open(fresh), 100, 100),
                            test_rows.reference(100)),
              100u);
    EXPECT_EQ(firstMismatch(pull(*bench_rows.open(fresh), 100, 100),
                            bench_rows.reference(100)),
              100u);
    stats = fresh.stats();
    EXPECT_EQ(stats.streams_generated, 2u);
    EXPECT_EQ(stats.streams_replayed, 0u);
    EXPECT_EQ(fresh.residentStreams(), 2u);
}

// ---------------------------------------------------------------------------
// Eviction under a tiny budget

TEST(StreamMemo, TinyBudgetEvictsWithoutChangingResults)
{
    // The six streams these runs pull span 22 segments of ~20 KiB, far
    // over 64 KiB, so new segments keep evicting older streams;
    // streams already handed to a running System keep replaying.
    StreamCache cache(64 * 1024);
    for (const RunKey &key :
         {groupKey("G4-1", "coop"), groupKey("G2-1", "ucp")}) {
        EXPECT_EQ(runFormatted(key), memoized(cache, key)) << key.name;
    }

    const StreamCache::Stats stats = cache.stats();
    EXPECT_GT(stats.streams_evicted, 0u);
    // Eviction never touches the stream currently being extended, so
    // up to one stream may sit over budget once the last run ends —
    // but the other five must have been dropped along the way.
    EXPECT_LT(cache.residentStreams(), 6u);
}

TEST(StreamMemo, AnEvictedStreamKeepsOnlyTheSegmentItsReaderDecodes)
{
    // A budget of one byte evicts every stream but the one being
    // extended.
    StreamCache cache(1);
    const DirectStream evicted(21);
    const DirectStream other(22);
    constexpr std::size_t kSegments = 50;
    const std::vector<core::MemOp> want =
        evicted.reference((kSegments + 3) * sim::kSegmentOps);

    const auto reader = evicted.open(cache);
    std::vector<core::MemOp> seen =
        pull(*reader, 3 * sim::kSegmentOps, sim::kSegmentOps);
    // While resident, the stream holds its empty head and 3 segments.
    EXPECT_EQ(cache.stats().segments_live, 4u);

    // Extending another stream evicts it, and frees every segment
    // behind its reader.
    pull(*other.open(cache), 1, 1);
    ASSERT_EQ(cache.stats().streams_evicted, 1u);
    ASSERT_EQ(cache.residentStreams(), 1u);
    // `other` stays resident: its empty head and 1 segment.
    const std::uint64_t resident_live = 2;
    EXPECT_EQ(cache.stats().segments_live, resident_live + 1);

    // The reader goes on generating the evicted stream, one segment at
    // a time, and keeps at most the one it decodes and the one it
    // generates.
    std::uint64_t most_live = 0;
    for (std::size_t i = 0; i < kSegments; ++i) {
        const std::vector<core::MemOp> part =
            pull(*reader, sim::kSegmentOps, 1000);
        seen.insert(seen.end(), part.begin(), part.end());
        most_live = std::max(most_live, cache.stats().segments_live);
    }
    EXPECT_LE(most_live, resident_live + 2);
    EXPECT_EQ(firstMismatch(seen, want), seen.size());
    EXPECT_EQ(seen.size(), (kSegments + 3) * sim::kSegmentOps);
    EXPECT_EQ(cache.stats().frames_generated, kSegments + 3 + 1);
    EXPECT_EQ(cache.residentStreams(), 1u);
}

TEST(StreamMemo, AForkKeepsNoSegmentAliveUntilItPulls)
{
    // A budget of one byte evicts every stream but the one being
    // extended.
    StreamCache cache(1);
    const DirectStream evicted(23);
    const DirectStream other(24);
    constexpr std::size_t kSegments = 50;
    const std::size_t at = 3 * sim::kSegmentOps + 17;
    const std::vector<core::MemOp> want =
        evicted.reference(at + kSegments * sim::kSegmentOps);

    // A warm-up checkpoint forks its source partway through segment 4.
    const auto reader = evicted.open(cache);
    pull(*reader, at, 1000);
    const auto checkpoint = reader->fork();

    pull(*other.open(cache), 1, 1);
    ASSERT_EQ(cache.stats().streams_evicted, 1u);
    // `other` stays resident: its empty head and 1 segment.
    const std::uint64_t resident_live = 2;

    // The source reads 50 more segments of the evicted stream; the
    // checkpoint keeps none of them alive.
    std::uint64_t most_live = 0;
    for (std::size_t i = 0; i < kSegments; ++i) {
        pull(*reader, sim::kSegmentOps, 1000);
        most_live = std::max(most_live, cache.stats().segments_live);
    }
    EXPECT_LE(most_live, resident_live + 2);

    // A sibling forked from the checkpoint opens the stream again and
    // reads on from the checkpoint's op.
    const auto sibling = checkpoint->fork();
    const std::size_t n = want.size() - at;
    EXPECT_EQ(firstMismatch(pull(*sibling, n, 61),
                            std::vector<core::MemOp>(want.begin() + at,
                                                     want.end())),
              n);
    EXPECT_EQ(cache.stats().streams_generated, 3u);
}

// ---------------------------------------------------------------------------
// Serial vs parallel determinism through the process-wide memo

TEST(StreamMemo, SerialAndParallelExecutionMatch)
{
    StreamCache &cache = StreamCache::instance();
    cache.clear();
    cache.resetStats();

    std::vector<RunKey> keys;
    for (const char *scheme : {"coop", "ucp", "unmanaged"}) {
        for (const char *sampling : {"exact", "setop"}) {
            keys.push_back(groupKey("G4-1", scheme, "lookahead", sampling));
        }
    }

    // executeRun() replays the process-wide memo; the reference
    // System generates its own streams.
    std::vector<std::string> serial;
    for (const RunKey &key : keys) {
        serial.push_back(store::formatResult(sim::executeRun(key)));
        EXPECT_EQ(serial.back(), runFormatted(key)) << key.scheme;
    }
    EXPECT_GT(cache.stats().streams_replayed, 0u);

    // Fresh memo for the parallel pass: the 4 workers race to create
    // the shared entries, then replay concurrently.
    cache.clear();
    sim::RunExecutor executor(4);
    executor.prefetch(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(serial[i], store::formatResult(executor.run(keys[i])))
            << keys[i].scheme;
    }
    cache.clear();
}

// ---------------------------------------------------------------------------
// Segment-granular generation

TEST(StreamMemo, GeneratesOnlyTheSegmentsItsReadersPull)
{
    constexpr std::size_t kSegment = sim::kSegmentOps;

    std::uint64_t seed = 100;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, kSegment - 1, kSegment,
          kSegment + 1, 5 * kSegment + 17}) {
        StreamCache cache;
        const DirectStream direct(++seed);
        const std::vector<core::MemOp> want = direct.reference(n);

        // Batches of 61 ops straddle every segment boundary.
        const auto stream = direct.open(cache);
        EXPECT_EQ(firstMismatch(pull(*stream, n, 61), want), n) << n;
        const std::uint64_t segments = (n + kSegment - 1) / kSegment;
        EXPECT_EQ(cache.stats().frames_generated, segments) << n;

        // A second reader of the same ops replays them all.
        const auto again = direct.open(cache);
        EXPECT_EQ(firstMismatch(pull(*again, n, 4096), want), n) << n;
        EXPECT_EQ(cache.stats().frames_generated, segments) << n;
        EXPECT_EQ(cache.stats().streams_generated, 1u);

        // A fork starts on its parent's next op, walking the resident
        // chain to it.
        const auto fork = again->fork();
        const std::vector<core::MemOp> tail = direct.reference(n + 100);
        const std::vector<core::MemOp> forked = pull(*fork, 100, 7);
        EXPECT_EQ(firstMismatch(forked, std::vector<core::MemOp>(
                                            tail.begin() + n, tail.end())),
                  100u)
            << n;
        EXPECT_EQ(cache.stats().frames_generated,
                  (n + 100 + kSegment - 1) / kSegment)
            << n;
        EXPECT_EQ(cache.stats().streams_generated, 1u);
    }
}

TEST(StreamMemo, ReadersRacingAnExtenderSeeOneSequence)
{
    StreamCache cache;
    const DirectStream direct(7);
    const std::size_t n = 12 * sim::kSegmentOps + 100;
    const std::vector<core::MemOp> want = direct.reference(n);

    // Five threads pull one stream at once: one a whole segment at a
    // time, four in batches that cross segment boundaries at different
    // offsets. Whichever is ahead extends the entry while the others
    // replay what it linked.
    const std::vector<std::size_t> batches = {4096, 1, 7, 64, 1000};
    std::vector<std::unique_ptr<core::OpStream>> streams;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        streams.push_back(direct.open(cache));
    }
    std::vector<std::vector<core::MemOp>> seen(batches.size());
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        threads.emplace_back([&, i] {
            while (!go.load()) {
                std::this_thread::yield();
            }
            seen[i] = pull(*streams[i], n, batches[i]);
        });
    }
    go = true;
    for (std::thread &t : threads) {
        t.join();
    }

    for (std::size_t i = 0; i < batches.size(); ++i) {
        EXPECT_EQ(firstMismatch(seen[i], want), n)
            << "reader pulling " << batches[i] << " ops at a time";
    }
    EXPECT_EQ(cache.stats().frames_generated,
              (n + sim::kSegmentOps - 1) / sim::kSegmentOps);
}

// ---------------------------------------------------------------------------
// Mismatched opens

TEST(StreamMemo, OpenRejectsASeedItsKeyDoesNotDerive)
{
    StreamCache cache;
    DirectStream direct(42);
    direct.key.slot = 3; // derives 42 + 3 * 7919, not 42
    ThrowOnFatal guard;
    try {
        direct.open(cache);
        FAIL() << "a stream seed the key does not derive was accepted";
    } catch (const FatalError &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("memoized stream '" + direct.profile.name +
                               "' slot 3"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("seed mismatch"), std::string::npos)
            << message;
    }
    EXPECT_EQ(cache.residentStreams(), 0u);
}

TEST(StreamMemo, OpenRejectsASecondProfileUnderOneKey)
{
    StreamCache cache;
    const DirectStream direct(42);
    direct.open(cache);
    trace::AppProfile other = trace::specProfile("h264ref");
    ASSERT_NE(other.name, direct.profile.name);
    ThrowOnFatal guard;
    try {
        cache.open(direct.key, other, direct.stream_seed);
        FAIL() << "a second profile under one key was accepted";
    } catch (const FatalError &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("memoized stream '" + direct.profile.name +
                               "' slot 0"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("app mismatch"), std::string::npos)
            << message;
        EXPECT_NE(message.find("h264ref"), std::string::npos) << message;
    }
}
