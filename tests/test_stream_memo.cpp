/**
 * @file
 * Tests for the process-wide op-stream memo (sim::StreamCache):
 *
 *  - memoized runs are bit-identical (store::formatResult) to
 *    --no-stream-memo runs over a {group} x {scheme} x {partitioner}
 *    x {sampling} matrix that spans 2..32 cores, the banked 32-core
 *    topology row and set+op sampling;
 *  - a fresh cache generates exactly one stream per distinct
 *    (workload, slot, seed, scale, geometry) key, replays the rest,
 *    serves a solo run from its group's slot-0 stream, and shares
 *    streams across topology rows with the same geometry;
 *  - a tiny budget forces whole-stream LRU eviction without changing
 *    any result;
 *  - serial executeRun() and a multi-threaded RunExecutor produce
 *    bit-identical results through the shared memo;
 *  - a stream is generated one frame at a time, only as far as its
 *    furthest reader, and readers that race a thread extending the
 *    entry all see the generator's exact sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.hpp"
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

/** Restores the process-wide cache to pristine default state on both
 *  entry and exit, so tests neither see nor leak memo state. */
class CacheGuard
{
  public:
    CacheGuard()
    {
        reset();
    }
    ~CacheGuard()
    {
        reset();
    }

  private:
    static void
    reset()
    {
        StreamCache::instance().configure(StreamCache::Config{});
        StreamCache::instance().clear();
        StreamCache::instance().resetStats();
    }
};

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

std::string
runFormatted(const RunKey &key)
{
    return store::formatResult(sim::executeRun(key));
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
    open() const
    {
        return StreamCache::instance().open(key, profile, stream_seed);
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

} // namespace

// ---------------------------------------------------------------------------
// Differential bit-identity: memoized vs --no-stream-memo

TEST(StreamMemo, MemoizedRunsAreBitIdenticalAcrossMatrix)
{
    CacheGuard guard;
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

                    StreamCache::instance().configure({false, 0});
                    const std::string plain = runFormatted(key);

                    StreamCache::instance().configure({true, 0});
                    const std::string memoized = runFormatted(key);
                    // And again, replaying the now-warm streams.
                    const std::string replayed = runFormatted(key);

                    EXPECT_EQ(plain, memoized)
                        << group << " " << scheme << " (cold memo)";
                    EXPECT_EQ(plain, replayed)
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
    CacheGuard guard;
    StreamCache &cache = StreamCache::instance();

    // 4 runs of G2-1 (2 streams) + 4 runs of G4-1 (4 streams), all
    // sharing one seed/scale: 6 distinct streams, everything else a
    // replay.
    std::vector<RunKey> keys;
    for (const char *group : {"G2-1", "G4-1"}) {
        for (const char *scheme : {"coop", "ucp"}) {
            for (const char *partitioner : {"lookahead", "greedy"}) {
                keys.push_back(groupKey(group, scheme, partitioner));
            }
        }
    }
    for (const RunKey &key : keys) {
        sim::executeRun(key);
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
    sim::executeRun(api::soloRunKey(testSpec(), app, 2));
    stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 6u);
    EXPECT_EQ(cache.residentStreams(), 6u);
}

TEST(StreamMemo, TopologyRowsWithOneGeometryShareStreams)
{
    CacheGuard guard;
    StreamCache &cache = StreamCache::instance();

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

    cache.configure({false, 0});
    std::vector<std::string> plain;
    for (const RunKey &key : keys) {
        plain.push_back(runFormatted(key));
    }

    cache.configure({true, 0});
    EXPECT_EQ(plain[0], runFormatted(keys[0]));
    EXPECT_EQ(cache.stats().streams_generated, 8u);
    // The solo runs on the 16-core row, which no run has used yet, and
    // still replays G8-mem1's slot-0 stream.
    EXPECT_EQ(plain[1], runFormatted(keys[1]));
    EXPECT_EQ(cache.stats().streams_generated, 8u);
    // G16-mem1 replays all 8 and generates only its last 8 slots.
    EXPECT_EQ(plain[2], runFormatted(keys[2]));
    StreamCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 16u);
    EXPECT_EQ(stats.streams_replayed, 9u);
    EXPECT_EQ(cache.residentStreams(), 16u);

    // Geometry is part of a stream's identity: the same app, slot and
    // seed on two geometries are two entries.
    cache.clear();
    cache.resetStats();
    const DirectStream test_rows(42, {128, 64});
    const DirectStream bench_rows(42, {512, 64});
    EXPECT_EQ(firstMismatch(pull(*test_rows.open(), 100, 100),
                            test_rows.reference(100)),
              100u);
    EXPECT_EQ(firstMismatch(pull(*bench_rows.open(), 100, 100),
                            bench_rows.reference(100)),
              100u);
    stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 2u);
    EXPECT_EQ(stats.streams_replayed, 0u);
    EXPECT_EQ(cache.residentStreams(), 2u);
}

// ---------------------------------------------------------------------------
// Eviction under a tiny budget

TEST(StreamMemo, TinyBudgetEvictsWithoutChangingResults)
{
    CacheGuard guard;
    StreamCache &cache = StreamCache::instance();

    const std::vector<RunKey> keys = {groupKey("G4-1", "coop"),
                                      groupKey("G2-1", "ucp")};

    cache.configure({false, 0});
    std::vector<std::string> plain;
    for (const RunKey &key : keys) {
        plain.push_back(runFormatted(key));
    }

    // The six streams these runs pull span 22 frames of ~20 KiB, far
    // over 64 KiB, so new frames keep evicting older streams; streams
    // already handed to a running System keep replaying through their
    // shared_ptr regardless.
    cache.configure({true, 64 * 1024});
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(plain[i], runFormatted(keys[i])) << keys[i].name;
    }

    const StreamCache::Stats stats = cache.stats();
    EXPECT_GT(stats.streams_evicted, 0u);
    // Eviction never touches the stream currently being extended, so
    // up to one stream may sit over budget once the last run ends —
    // but the other five must have been dropped along the way.
    EXPECT_LT(cache.residentStreams(), 6u);
}

// ---------------------------------------------------------------------------
// Serial vs parallel determinism through the shared memo

TEST(StreamMemo, SerialAndParallelExecutionMatch)
{
    CacheGuard guard;

    std::vector<RunKey> keys;
    for (const char *scheme : {"coop", "ucp", "unmanaged"}) {
        for (const char *sampling : {"exact", "setop"}) {
            keys.push_back(groupKey("G4-1", scheme, "lookahead", sampling));
        }
    }

    std::vector<std::string> serial;
    for (const RunKey &key : keys) {
        serial.push_back(runFormatted(key));
    }

    // Fresh memo for the parallel pass: the 4 workers race to create
    // the shared entries (future-dedup), then replay concurrently.
    StreamCache::instance().clear();
    sim::RunExecutor executor(4);
    executor.prefetch(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(serial[i], store::formatResult(executor.run(keys[i])))
            << keys[i].scheme;
    }
}

// ---------------------------------------------------------------------------
// Frame-granular generation

TEST(StreamMemo, GeneratesOnlyTheFramesItsReadersPull)
{
    CacheGuard guard;
    StreamCache &cache = StreamCache::instance();
    constexpr std::size_t kFrame = tracefile::kFrameOps;

    std::uint64_t seed = 100;
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kFrame - 1,
                                kFrame, kFrame + 1, 5 * kFrame + 17}) {
        cache.clear();
        cache.resetStats();
        const DirectStream direct(++seed);
        const std::vector<core::MemOp> want = direct.reference(n);

        // Batches of 61 ops straddle every frame boundary.
        const auto stream = direct.open();
        EXPECT_EQ(firstMismatch(pull(*stream, n, 61), want), n) << n;
        const std::uint64_t frames = (n + kFrame - 1) / kFrame;
        EXPECT_EQ(cache.stats().frames_generated, frames) << n;

        // A second reader of the same ops replays them all.
        const auto again = direct.open();
        EXPECT_EQ(firstMismatch(pull(*again, n, 4096), want), n) << n;
        EXPECT_EQ(cache.stats().frames_generated, frames) << n;
        EXPECT_EQ(cache.stats().streams_generated, 1u);
    }
}

TEST(StreamMemo, ReadersRacingAnExtenderSeeOneSequence)
{
    CacheGuard guard;
    StreamCache &cache = StreamCache::instance();
    const DirectStream direct(7);
    const std::size_t n = 12 * tracefile::kFrameOps + 100;
    const std::vector<core::MemOp> want = direct.reference(n);

    // Five threads pull one stream at once: one a whole frame at a
    // time, four in batches that cross frame boundaries at different
    // offsets. Whichever is ahead extends the entry while the others
    // replay what it published.
    const std::vector<std::size_t> batches = {4096, 1, 7, 64, 1000};
    std::vector<std::unique_ptr<core::OpStream>> streams;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        streams.push_back(direct.open());
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
              (n + tracefile::kFrameOps - 1) / tracefile::kFrameOps);
}
