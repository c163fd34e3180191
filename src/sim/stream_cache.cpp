#include "sim/stream_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <unistd.h>
#include <vector>

#include "api/registry.hpp"
#include "common/logging.hpp"
#include "trace/generator.hpp"

namespace coopsim::sim
{

namespace
{

std::uint64_t
mixHash(std::uint64_t h, std::uint64_t v)
{
    // splitmix64 finalizer; the same mixer RunKeyHash uses.
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
    /** Identity block, validated against every opener (and against a
     *  warm-start file); also the header a spill file gets. */
    tracefile::TraceHeader header;
    /** "memoized stream '<workload>' slot N", for decoder fatals. */
    std::string label;
    /** Recreates the positioned generator after warm start or entry
     *  recreation; null for file-backed (trace:) entries. */
    std::function<std::unique_ptr<core::OpStream>()> rebuild;
    /** Source file of a trace:-backed entry (for exhaustion fatals). */
    std::string source_path;
    /** Bytes loaded from disk at creation, accounted by the winner
     *  (immutable after build, unlike the segments). */
    std::size_t initial_bytes = 0;
    /** True when the entry was materialized from a disk file. */
    bool from_disk = false;

    std::mutex mu;
    /**
     * Published segments in stream order: at most one loaded from
     * disk, then one per generated frame. A deque, so publishing a
     * segment never moves another — readers keep raw pointers to the
     * segments they fetched (the entry outlives them through the
     * reader's shared_ptr) and decode them without the lock.
     */
    std::deque<StreamSegment> segments;
    /** Ops across all segments. */
    std::uint64_t encoded_ops = 0;
    /** Ops that came from a spill file (spill skips clean entries). */
    std::uint64_t disk_ops = 0;
    /** The retained generator, positioned just past encoded_ops. */
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
    if (!rebuild) {
        // File-backed entries end where the file ends, with the same
        // diagnosis a direct TraceFileStream would give.
        COOPSIM_FATAL("trace file '", source_path, "' exhausted after ",
                      encoded_ops,
                      " ops — the simulation wanted more than was recorded; "
                      "re-record with a larger instruction budget");
    }

    // Per-thread scratch: a frame's ops and its encoding are the only
    // buffers besides the segment itself, and they are reused.
    thread_local std::vector<core::MemOp> ops(tracefile::kFrameOps);
    thread_local std::string frame;

    if (!generator) {
        // First extension after a warm start (or after the generator
        // was dropped): rebuild it and skip the already-encoded
        // prefix. Generation is deterministic, so the resumed stream
        // continues exactly where the encoded ops end.
        generator = rebuild();
        std::uint64_t skipped = 0;
        while (skipped < encoded_ops) {
            skipped += generator->nextBatch(
                ops.data(), static_cast<std::size_t>(std::min<std::uint64_t>(
                                tracefile::kFrameOps, encoded_ops - skipped)));
        }
        COOPSIM_ASSERT(skipped == encoded_ops,
                       "memoized stream over-skipped its encoded prefix");
    }

    // One whole frame per segment: boundaries never depend on which
    // run, thread or batch size pulled the stream first, so neither
    // do the bytes memoized, spilled or warm-started.
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

    encoded_ops += tracefile::kFrameOps;
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

    core::MemOp
    next() override
    {
        core::MemOp op;
        nextBatch(&op, 1);
        return op;
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
    h = mixHash(h, key.num_cores);
    return static_cast<std::size_t>(h);
}

StreamCache &
StreamCache::instance()
{
    static StreamCache cache;
    // Registered after the static above is constructed, so the hook
    // runs before its destructor: spill and stats see live entries.
    static const int hook = [] {
        std::atexit([] {
            StreamCache &c = instance();
            c.spillNow();
            c.printStats(stderr);
        });
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
    if (!config.spill_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(config.spill_dir, ec);
        if (ec) {
            COOPSIM_FATAL("--trace-cache: cannot create directory '",
                          config.spill_dir, "': ", ec.message());
        }
    }
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
                     std::uint32_t topology_cores)
{
    const std::string scale_key = api::scaleKeyOf(scale);
    return [run_seed, scale_key, topology_cores](
               std::uint32_t c, const trace::AppProfile &profile,
               const trace::StreamGeometry &geometry,
               std::uint64_t stream_seed) -> std::unique_ptr<core::OpStream> {
        Key key;
        key.workload = profile.name;
        key.slot = c;
        key.seed = run_seed;
        key.scale = scale_key;
        key.num_cores = topology_cores;
        return instance().open(key, profile, geometry, stream_seed);
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
    if (task) {
        (*task)(); // build outside the cache lock; losers wait on the future
        EntryPtr entry = future.get();
        std::lock_guard<std::mutex> lock(mu_);
        // clear() may have raced the build; only account a slot that
        // still maps this key to this entry.
        auto it = entries_.find(key);
        if (it != entries_.end() &&
            it->second.future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready &&
            it->second.future.get() == entry) {
            entry->accounted_bytes = entry->initial_bytes;
            resident_bytes_ += entry->initial_bytes;
            evictOverBudget(entry.get());
        }
    }
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
                  const trace::StreamGeometry &geometry,
                  std::uint64_t stream_seed)
{
    bool created = false;
    EntryPtr entry = getOrCreate(
        key,
        [&]() -> EntryPtr {
            auto e = std::make_shared<detail::StreamEntry>();
            e->key = key;
            e->header.core = key.slot;
            e->header.num_cores = key.num_cores;
            e->header.seed = key.seed;
            e->header.llc_sets = geometry.llc_sets;
            e->header.block_bytes = geometry.block_bytes;
            e->header.workload = key.workload;
            e->header.app = profile.name;
            e->header.scale = key.scale;
            e->label = "memoized stream '" + key.workload + "' slot " +
                       std::to_string(key.slot);
            e->rebuild = [profile, geometry, slot = key.slot, stream_seed]() {
                return std::make_unique<trace::SyntheticStream>(
                    profile, geometry, slot, stream_seed);
            };
            std::string spill;
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (!config_.spill_dir.empty())
                    spill = spillPath(key);
            }
            if (!spill.empty() && tryWarmStart(*e, spill))
                e->from_disk = true;
            return e;
        },
        created);

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!created)
            ++stats_.streams_replayed;
        else if (entry->from_disk)
            ++stats_.streams_loaded;
        else
            ++stats_.streams_generated;
    }

    // The key matched, so the identity block must too; a mismatch
    // means two different op sequences landed on one memo key.
    if (entry->header.seed + key.slot * 7919 != stream_seed)
        COOPSIM_FATAL(entry->label, ": seed mismatch (memoized for run seed ",
                      entry->header.seed, ", asked to serve stream seed ",
                      stream_seed, ")");
    if (entry->header.app != profile.name)
        COOPSIM_FATAL(entry->label, ": app mismatch (memoized '",
                      entry->header.app, "', asked for '", profile.name,
                      "') — distinct profiles share a registry name");
    if (entry->header.llc_sets != geometry.llc_sets ||
        entry->header.block_bytes != geometry.block_bytes)
        COOPSIM_FATAL(entry->label, ": geometry mismatch (memoized ",
                      entry->header.llc_sets, " sets x ",
                      entry->header.block_bytes, " B blocks, asked for ",
                      geometry.llc_sets, " x ", geometry.block_bytes, ")");

    return std::make_unique<detail::MemoReplayStream>(std::move(entry), *this);
}

std::unique_ptr<core::OpStream>
StreamCache::openTraceFile(const Key &key, const std::string &path,
                           const tracefile::TraceHeader &expected)
{
    bool created = false;
    EntryPtr entry = getOrCreate(
        key,
        [&]() -> EntryPtr {
            auto e = std::make_shared<detail::StreamEntry>();
            e->key = key;
            e->source_path = path;
            e->label = "trace file '" + path + "'";

            std::string data, error;
            std::size_t logical = 0;
            if (!tracefile::readTraceFile(path, data, logical, error))
                COOPSIM_FATAL("trace file: ", error);
            std::size_t pos = 0;
            if (!tracefile::decodeHeader(data, pos, e->header, error))
                COOPSIM_FATAL(e->label, ": ", error);
            if (e->header != expected)
                COOPSIM_FATAL(e->label, ": header changed on disk since the "
                              "trace directory was scanned — re-run after "
                              "the recording finishes");
            std::uint64_t ops = 0;
            if (!tracefile::validateFrames(data, pos, logical, ops, error))
                COOPSIM_FATAL(e->label, ": ", error,
                              " — the file is corrupt; re-record it");

            detail::StreamSegment &segment = e->segments.emplace_back();
            segment.logical = logical - pos;
            segment.data = data.substr(pos); // keeps the slack padding
            e->encoded_ops = ops;
            e->disk_ops = ops;
            e->initial_bytes = segment.data.size();
            e->from_disk = true;
            return e;
        },
        created);

    std::lock_guard<std::mutex> lock(mu_);
    if (created)
        ++stats_.streams_loaded;
    else
        ++stats_.streams_replayed;
    return std::make_unique<detail::MemoReplayStream>(std::move(entry), *this);
}

std::string
StreamCache::spillPath(const Key &key) const
{
    // Deliberately unparseable by registerTraceDir()'s
    // `<workload>.<core>.cooptrace` scan: the spill directory can
    // double as a --trace-dir without these files being mistaken for
    // recorded trace sets.
    return config_.spill_dir + "/" + key.workload + ".s" +
           std::to_string(key.slot) + ".seed" + std::to_string(key.seed) +
           "." + key.scale + ".c" + std::to_string(key.num_cores) +
           tracefile::kTraceExtension;
}

bool
StreamCache::tryWarmStart(detail::StreamEntry &entry, const std::string &path)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return false;

    std::string data, error;
    std::size_t logical = 0;
    if (!tracefile::readTraceFile(path, data, logical, error)) {
        COOPSIM_WARN("stream cache: ", error, "; regenerating");
        return false;
    }
    std::size_t pos = 0;
    tracefile::TraceHeader header;
    if (!tracefile::decodeHeader(data, pos, header, error)) {
        COOPSIM_WARN("stream cache: '", path, "': ", error, "; regenerating");
        return false;
    }
    if (header != entry.header) {
        COOPSIM_WARN("stream cache: '", path,
                     "' was cached for a different identity; regenerating");
        return false;
    }
    std::uint64_t ops = 0;
    if (!tracefile::validateFrames(data, pos, logical, ops, error)) {
        COOPSIM_WARN("stream cache: '", path, "': ", error, "; regenerating");
        return false;
    }
    if (ops == 0)
        return false;

    detail::StreamSegment &segment = entry.segments.emplace_back();
    segment.logical = logical - pos;
    segment.data = data.substr(pos);
    entry.encoded_ops = ops;
    entry.disk_ops = ops;
    entry.initial_bytes = segment.data.size();
    return true;
}

void
StreamCache::spillNow()
{
    std::vector<EntryPtr> dirty;
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (config_.spill_dir.empty())
            return;
        dir = config_.spill_dir;
        for (const auto &[key, slot] : entries_) {
            if (slot.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                continue;
            dirty.push_back(slot.future.get());
        }
    }
    for (const EntryPtr &entry : dirty) {
        std::lock_guard<std::mutex> lock(entry->mu);
        if (!entry->rebuild)
            continue; // trace:-backed; the source file already exists
        if (entry->encoded_ops == 0 || entry->encoded_ops <= entry->disk_ops)
            continue; // nothing beyond what the spill file already holds

        std::string path;
        {
            std::lock_guard<std::mutex> cache_lock(mu_);
            path = spillPath(entry->key);
        }
        const std::string tmp = path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        if (!f) {
            COOPSIM_WARN("stream cache: cannot write '", tmp, "'");
            continue;
        }
        const std::string header = tracefile::encodeHeader(entry->header);
        bool ok = std::fwrite(header.data(), 1, header.size(), f) ==
                  header.size();
        for (const detail::StreamSegment &segment : entry->segments) {
            ok = ok && std::fwrite(segment.data.data(), 1, segment.logical,
                                   f) == segment.logical;
        }
        ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
        ok = (std::fclose(f) == 0) && ok;
        if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
            COOPSIM_WARN("stream cache: failed to spill '", path, "'");
            std::remove(tmp.c_str());
            continue;
        }
        entry->disk_ops = entry->encoded_ops;
    }
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
        s.streams_evicted == 0 && s.streams_loaded == 0)
        return;
    stats_printed_ = true;
    std::fprintf(out, "# streams: generated=%llu replayed=%llu evicted=%llu",
                 static_cast<unsigned long long>(s.streams_generated),
                 static_cast<unsigned long long>(s.streams_replayed),
                 static_cast<unsigned long long>(s.streams_evicted));
    if (s.streams_loaded != 0)
        std::fprintf(out, " loaded=%llu",
                     static_cast<unsigned long long>(s.streams_loaded));
    std::fprintf(out, "\n");
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
