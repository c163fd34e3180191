#include "sim/stream_cache.hpp"

#include <chrono>
#include <cstdlib>
#include <deque>
#include <vector>

#include "api/registry.hpp"
#include "common/logging.hpp"
#include "trace/generator.hpp"
#include "tracefile/trace_format.hpp"

namespace coopsim::sim
{

namespace
{

std::uint64_t
mixHash(std::uint64_t h, std::uint64_t v)
{
    // boost::hash_combine's step; RunKeyHash follows the same step
    // with a splitmix64 finaliser.
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

} // namespace

namespace detail
{

/** One frame-encoded chunk of a memoized stream, immutable once
 *  published. */
struct StreamSegment
{
    /** Whole frames plus kDecodeSlack readable padding. */
    std::string data;
    /** Frame bytes (excluding the padding). */
    std::size_t logical = 0;
};

struct StreamEntry
{
    StreamCache::Key key;
    /** App profile the entry was built from, checked against every
     *  opener. */
    std::string app;
    /** "memoized stream '<workload>' slot N", for fatals. */
    std::string label;

    std::mutex mu;
    /**
     * Published segments in stream order, one per generated frame. A
     * deque, so publishing a segment never moves another — readers
     * keep raw pointers to the segments they fetched (the entry
     * outlives them through the reader's shared_ptr) and decode them
     * without the lock.
     */
    std::deque<StreamSegment> segments;
    /** The generator, positioned just past the last published frame. */
    std::unique_ptr<core::OpStream> generator;

    /** Bytes charged against the cache budget. Guarded by the CACHE
     *  lock, not mu: it must stay consistent with resident_bytes_. */
    std::size_t accounted_bytes = 0;

    /**
     * Replaces @p out with every segment published from index @p from
     * on, generating the next frame first when a reader has caught up
     * with the writer. The one place a reader takes the entry lock.
     */
    void fetch(std::size_t from, std::vector<const StreamSegment *> &out,
               StreamCache &cache);

  private:
    /** Generates, encodes and publishes one more frame. Caller holds
     *  mu. */
    void extend(StreamCache &cache);
};

void
StreamEntry::fetch(std::size_t from, std::vector<const StreamSegment *> &out,
                   StreamCache &cache)
{
    std::lock_guard<std::mutex> lock(mu);
    if (from == segments.size())
        extend(cache);
    COOPSIM_ASSERT(from < segments.size(),
                   "stream segment requested out of order");
    out.clear();
    for (std::size_t i = from; i < segments.size(); ++i) {
        out.push_back(&segments[i]);
    }
}

void
StreamEntry::extend(StreamCache &cache)
{
    // Per-thread scratch: a frame's ops and its encoding are the only
    // buffers besides the segment itself, and they are reused.
    thread_local std::vector<core::MemOp> ops(tracefile::kFrameOps);
    thread_local std::string frame;

    // One whole frame per segment: boundaries never depend on which
    // run, thread or batch size pulled the stream first, so neither
    // do the bytes memoized.
    std::size_t got = 0;
    while (got < tracefile::kFrameOps) {
        got += generator->nextBatch(ops.data() + got,
                                    tracefile::kFrameOps - got);
    }
    tracefile::encodeFrame(ops.data(), tracefile::kFrameOps, frame);

    // Sized exactly: appending the slack to an exact-fit string would
    // double its capacity, and segments are what the memo keeps.
    StreamSegment &segment = segments.emplace_back();
    segment.data.reserve(frame.size() + tracefile::kDecodeSlack);
    segment.data.append(frame);
    segment.data.append(tracefile::kDecodeSlack, '\0');
    segment.logical = frame.size();

    cache.noteExtend(this, segment.data.size());
}

namespace
{

/**
 * The replay half of the memo: decodes the segments it holds through
 * one FrameDecoder (frames decode independently, so crossing a segment
 * boundary just re-arms the decoder) and fetches the entry's newer
 * segments only once it has run past all of them — a replay of an
 * already generated stream takes the entry lock once. Holds the entry
 * by shared_ptr, so replay keeps working even if the LRU evicts the
 * entry mid-run.
 */
class MemoReplayStream final : public core::OpStream
{
  public:
    MemoReplayStream(std::shared_ptr<StreamEntry> entry, StreamCache &cache)
        : entry_(std::move(entry)), cache_(cache)
    {
    }

    std::size_t
    nextBatch(core::MemOp *out, std::size_t max) override
    {
        std::size_t produced = 0;
        while (produced < max) {
            const std::size_t got =
                decoder_.decode(out + produced, max - produced);
            if (got != 0) {
                produced += got;
                continue;
            }
            // Clean end of the current segment (or none armed yet).
            if (held_pos_ == held_.size()) {
                entry_->fetch(next_index_, held_, cache_);
                held_pos_ = 0;
            }
            const StreamSegment *segment = held_[held_pos_++];
            ++next_index_;
            decoder_.reset(segment->data.data(), 0, segment->logical,
                           &entry_->label);
        }
        return produced;
    }

    /** Shares the entry and starts on the same op: the segments it
     *  holds are immutable, and the decoder is plain cursor state. */
    std::unique_ptr<core::OpStream>
    fork() const override
    {
        return std::make_unique<MemoReplayStream>(*this);
    }

  private:
    std::shared_ptr<StreamEntry> entry_;
    StreamCache &cache_;
    /** Fetched segments not yet decoded from, from held_pos_ on. */
    std::vector<const StreamSegment *> held_;
    std::size_t held_pos_ = 0;
    /** Entry index of the segment after the one being decoded. */
    std::size_t next_index_ = 0;
    tracefile::FrameDecoder decoder_;
};

} // namespace

} // namespace detail

// ---------------------------------------------------------------------------
// StreamCache

std::size_t
StreamCache::KeyHash::operator()(const Key &key) const
{
    std::uint64_t h = std::hash<std::string>{}(key.workload);
    h = mixHash(h, key.slot);
    h = mixHash(h, key.seed);
    h = mixHash(h, std::hash<std::string>{}(key.scale));
    h = mixHash(h, key.geometry.llc_sets);
    h = mixHash(h, key.geometry.block_bytes);
    return static_cast<std::size_t>(h);
}

StreamCache &
StreamCache::instance()
{
    static StreamCache cache;
    // Registered after the static above is constructed, so the hook
    // runs before its destructor and prints the live counters.
    static const int hook = [] {
        std::atexit([] { instance().printStats(stderr); });
        return 0;
    }();
    (void)hook;
    return cache;
}

std::size_t
StreamCache::defaultBudgetBytes()
{
    return (4ull << 20) * topologyTable().back().max_cores;
}

void
StreamCache::configure(const Config &config)
{
    std::lock_guard<std::mutex> lock(mu_);
    config_ = config;
    evictOverBudget(nullptr);
}

StreamCache::Config
StreamCache::config() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return config_;
}

bool
StreamCache::enabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return config_.enabled;
}

std::size_t
StreamCache::budgetBytes() const
{
    return config_.budget_bytes != 0 ? config_.budget_bytes
                                     : defaultBudgetBytes();
}

StreamFactory
StreamCache::factory(std::uint64_t run_seed, RunScale scale,
                     std::uint32_t /*topology_cores*/)
{
    const std::string scale_key = api::scaleKeyOf(scale);
    return [run_seed, scale_key](
               std::uint32_t c, const trace::AppProfile &profile,
               const trace::StreamGeometry &geometry,
               std::uint64_t stream_seed) -> std::unique_ptr<core::OpStream> {
        Key key;
        key.workload = profile.name;
        key.slot = c;
        key.seed = run_seed;
        key.scale = scale_key;
        key.geometry = geometry;
        return instance().open(key, profile, stream_seed);
    };
}

StreamCache::EntryPtr
StreamCache::getOrCreate(const Key &key,
                         const std::function<EntryPtr()> &build,
                         bool &created)
{
    std::shared_ptr<std::packaged_task<EntryPtr()>> task;
    EntryFuture future;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.touch = ++touch_clock_;
            created = false;
            future = it->second.future;
        } else {
            task = std::make_shared<std::packaged_task<EntryPtr()>>(build);
            future = task->get_future().share();
            entries_.emplace(key, Slot{future, ++touch_clock_});
            created = true;
        }
    }
    if (task)
        (*task)(); // build outside the cache lock; losers wait on the future
    return future.get();
}

void
StreamCache::noteExtend(detail::StreamEntry *entry, std::size_t delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_generated;
    auto it = entries_.find(entry->key);
    if (it == entries_.end() ||
        it->second.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready ||
        it->second.future.get().get() != entry) {
        // Evicted (or cleared) while a surviving reader extended it:
        // the entry is no longer budget-accounted, nothing to charge.
        return;
    }
    it->second.touch = ++touch_clock_;
    entry->accounted_bytes += delta;
    resident_bytes_ += delta;
    evictOverBudget(entry);
}

void
StreamCache::evictOverBudget(const detail::StreamEntry *keep)
{
    const std::size_t budget = budgetBytes();
    while (resident_bytes_ > budget) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue; // still being built; its bytes aren't counted
            if (it->second.future.get().get() == keep)
                continue;
            if (victim == entries_.end() ||
                it->second.touch < victim->second.touch)
                victim = it;
        }
        if (victim == entries_.end())
            break; // nothing evictable (e.g. only `keep` is resident)
        resident_bytes_ -= victim->second.future.get()->accounted_bytes;
        entries_.erase(victim);
        ++stats_.streams_evicted;
    }
}

std::unique_ptr<core::OpStream>
StreamCache::open(const Key &key, const trace::AppProfile &profile,
                  std::uint64_t stream_seed)
{
    bool created = false;
    EntryPtr entry = getOrCreate(
        key,
        [&]() -> EntryPtr {
            auto e = std::make_shared<detail::StreamEntry>();
            e->key = key;
            e->app = profile.name;
            e->label = "memoized stream '" + key.workload + "' slot " +
                       std::to_string(key.slot);
            e->generator = std::make_unique<trace::SyntheticStream>(
                profile, key.geometry, key.slot, stream_seed);
            return e;
        },
        created);

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (created)
            ++stats_.streams_generated;
        else
            ++stats_.streams_replayed;
    }

    // The key fixes the stream seed and the entry the app; a mismatch
    // means two different op sequences landed on one memo key.
    if (key.seed + key.slot * 7919 != stream_seed)
        COOPSIM_FATAL(entry->label, ": seed mismatch (memoized for run seed ",
                      key.seed, ", asked to serve stream seed ",
                      stream_seed, ")");
    if (entry->app != profile.name)
        COOPSIM_FATAL(entry->label, ": app mismatch (memoized '",
                      entry->app, "', asked for '", profile.name,
                      "') — distinct profiles share a registry name");

    return std::make_unique<detail::MemoReplayStream>(std::move(entry), *this);
}

StreamCache::Stats
StreamCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
StreamCache::printStats(std::FILE *out)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_printed_)
        return;
    const Stats &s = stats_;
    if (s.streams_generated == 0 && s.streams_replayed == 0 &&
        s.streams_evicted == 0)
        return;
    stats_printed_ = true;
    std::fprintf(out,
                 "# streams: generated=%llu replayed=%llu evicted=%llu\n",
                 static_cast<unsigned long long>(s.streams_generated),
                 static_cast<unsigned long long>(s.streams_replayed),
                 static_cast<unsigned long long>(s.streams_evicted));
}

std::size_t
StreamCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return resident_bytes_;
}

std::size_t
StreamCache::residentStreams() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
StreamCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    resident_bytes_ = 0;
}

void
StreamCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = Stats{};
    stats_printed_ = false;
}

} // namespace coopsim::sim
