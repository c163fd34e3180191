/**
 * @file
 * Tests for the process-wide op-stream memo (sim::StreamCache):
 *
 *  - memoized runs are bit-identical (store::formatResult) to
 *    --no-stream-memo runs over a {group} x {scheme} x {partitioner}
 *    x {sampling} matrix that spans 2..32 cores, the banked 32-core
 *    topology row and set+op sampling;
 *  - a fresh cache generates exactly one stream per distinct
 *    (workload, slot, seed, scale, num_cores) key, replays the rest,
 *    and serves a solo run from its group's slot-0 stream;
 *  - a tiny budget forces whole-stream LRU eviction without changing
 *    any result;
 *  - serial executeRun() and a multi-threaded RunExecutor produce
 *    bit-identical results through the shared memo;
 *  - --trace-cache spill/warm-start round-trips: a second "process"
 *    (cleared cache) loads every stream from disk, generates none,
 *    and reproduces the results bit-identically.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "store/result_store.hpp"
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

                    StreamCache::instance().configure({false, 0, ""});
                    const std::string plain = runFormatted(key);

                    StreamCache::instance().configure({true, 0, ""});
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
    // stream: same app, slot 0, seed, scale and topology row mean the
    // same op sequence, so nothing new is generated.
    const std::string app = trace::groupByName("G2-1").apps[0];
    sim::executeRun(api::soloRunKey(testSpec(), app, 2));
    stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 6u);
    EXPECT_EQ(cache.residentStreams(), 6u);
}

// ---------------------------------------------------------------------------
// Eviction under a tiny budget

TEST(StreamMemo, TinyBudgetEvictsWithoutChangingResults)
{
    CacheGuard guard;
    StreamCache &cache = StreamCache::instance();

    const std::vector<RunKey> keys = {groupKey("G4-1", "coop"),
                                      groupKey("G2-1", "ucp")};

    cache.configure({false, 0, ""});
    std::vector<std::string> plain;
    for (const RunKey &key : keys) {
        plain.push_back(runFormatted(key));
    }

    // 64 KiB holds no single test-scale stream (one lazily generated
    // segment is ~200 KiB), so every new stream evicts an older one;
    // streams already handed to a running System keep replaying
    // through their shared_ptr regardless.
    cache.configure({true, 64 * 1024, ""});
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
// --trace-cache spill / warm-start round trip

TEST(StreamMemo, TraceCacheSpillsAndWarmStarts)
{
    CacheGuard guard;
    StreamCache &cache = StreamCache::instance();
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "coopsim_memo_spill_test";
    std::filesystem::remove_all(dir);

    const std::vector<RunKey> keys = {groupKey("G2-1", "coop"),
                                      groupKey("G2-1", "ucp")};

    // "Process" 1: generate, then spill at (simulated) exit.
    cache.configure({true, 0, dir.string()});
    std::vector<std::string> first;
    for (const RunKey &key : keys) {
        first.push_back(runFormatted(key));
    }
    StreamCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 2u);
    cache.spillNow();
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              2);

    // "Process" 2: a cold cache warm-starts every stream from disk
    // and generates nothing.
    cache.clear();
    cache.resetStats();
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(first[i], runFormatted(keys[i])) << keys[i].scheme;
    }
    stats = cache.stats();
    EXPECT_EQ(stats.streams_generated, 0u);
    EXPECT_EQ(stats.streams_loaded, 2u);

    std::filesystem::remove_all(dir);
}
