#include "sim/stream_cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

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
    // boost::hash_combine's step; RunKeyHash follows the same step
    // with a splitmix64 finaliser.
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

/** Low `8*len` bits set, for masking an unconditional 8-byte load. */
constexpr std::uint64_t kLenMask[9] = {
    0x0000000000000000ull, 0x00000000000000ffull, 0x000000000000ffffull,
    0x0000000000ffffffull, 0x00000000ffffffffull, 0x000000ffffffffffull,
    0x0000ffffffffffffull, 0x00ffffffffffffffull, 0xffffffffffffffffull,
};

} // namespace

// ---------------------------------------------------------------------------
// The segment codec

void
encodeOps(const core::MemOp *ops, std::size_t count, std::string &out)
{
    // Encode through raw pointer writes into a worst-case-sized
    // buffer — one capacity check per segment instead of several per
    // op (this is the memo's cold-path inner loop). Worst case per op:
    // 1 flags byte + a 10-byte gap varint + an 8-byte delta; the
    // unconditional 8-byte delta store stays inside that budget.
    constexpr std::size_t kMaxOpBytes = 19;
    out.resize(count * kMaxOpBytes);
    char *const base = out.data();
    char *p = base;
    std::uint64_t prev_addr = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const core::MemOp &op = ops[i];
        const std::uint64_t z =
            zigzagEncode(static_cast<std::int64_t>(op.addr - prev_addr));
        const std::size_t len = deltaLen(z);
        *p++ = static_cast<char>((len << 1) |
                                 (op.type == AccessType::Write ? 1u : 0u));
        std::uint64_t gap = op.gap_insts;
        while (gap >= 0x80) {
            *p++ = static_cast<char>(gap | 0x80);
            gap >>= 7;
        }
        *p++ = static_cast<char>(gap);
        std::memcpy(p, &z, 8); // little-endian hosts only
        p += len;
        prev_addr = op.addr;
    }
    out.resize(static_cast<std::size_t>(p - base));
}

std::size_t
decodeOps(const char *data, std::size_t pos, std::uint64_t &prev_addr,
          core::MemOp *out, std::size_t count)
{
    // The replay loop: one flags byte, a mostly-one-byte varint gap,
    // and a masked unconditional 8-byte delta load per op.
    std::uint64_t addr = prev_addr;
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned flags = static_cast<unsigned char>(data[pos++]);
        const std::size_t len = flags >> 1;
        std::uint64_t gap = static_cast<unsigned char>(data[pos++]);
        if (gap >= 0x80) {
            gap &= 0x7f;
            unsigned shift = 7;
            std::uint8_t byte;
            do {
                byte = static_cast<unsigned char>(data[pos++]);
                gap |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
                shift += 7;
            } while ((byte & 0x80) != 0);
        }
        std::uint64_t z;
        std::memcpy(&z, data + pos, 8);
        pos += len;
        addr += static_cast<std::uint64_t>(zigzagDecode(z & kLenMask[len]));
        core::MemOp &op = out[i];
        op.gap_insts = gap;
        op.addr = addr;
        op.type = (flags & 1u) ? AccessType::Write : AccessType::Read;
    }
    prev_addr = addr;
    return pos;
}

namespace detail
{

/** One encoded chunk of a memoized stream. Its ops never change; its
 *  `next` is written once, under the entry lock, by the reader that
 *  generates the segment after it. */
struct StreamSegment
{
    explicit StreamSegment(std::atomic<std::uint64_t> &live_count)
        : live(live_count)
    {
        live.fetch_add(1, std::memory_order_relaxed);
    }

    StreamSegment(const StreamSegment &) = delete;
    StreamSegment &operator=(const StreamSegment &) = delete;

    ~StreamSegment();

    /** The ops' encoding, then kDecodeSlack zero bytes. */
    std::string data;
    /** Ops encoded: kSegmentOps, or 0 for an entry's head. */
    std::size_t ops = 0;
    /** The segment after this one, or null at the end of the chain.
     *  Read and written under the entry lock. */
    std::shared_ptr<StreamSegment> next;
    std::atomic<std::uint64_t> &live;
};

namespace
{

/** While this thread's outermost ~StreamSegment frees a chain, where a
 *  nested one leaves its successor instead of releasing it. */
thread_local std::shared_ptr<StreamSegment> *t_sink = nullptr;

} // namespace

StreamSegment::~StreamSegment()
{
    // A dropped chain is released in a loop, not by one nested
    // destructor call per segment: an evicted paper-scale stream runs
    // to ~10^5 segments.
    live.fetch_sub(1, std::memory_order_relaxed);
    if (t_sink != nullptr) {
        *t_sink = std::move(next);
        return;
    }
    std::shared_ptr<StreamSegment> rest = std::move(next);
    t_sink = &rest;
    while (rest != nullptr) {
        std::shared_ptr<StreamSegment> segment = std::move(rest);
        // Frees it only if nothing else holds it; its destructor then
        // leaves its successor in `rest`.
        segment.reset();
    }
    t_sink = nullptr;
}

namespace
{

/**
 * Drops the heads of evicted chains, outside the cache's locks, and
 * hands the memory that freed back to the system. glibc keeps a freed
 * chunk in the arena of the thread that allocated it, where only that
 * thread reuses it, so each pool worker's arena grew toward the whole
 * budget: on a 4-vCPU Xeon, fig05 --full --threads=4 peaked at
 * 824-1076 MB of RSS while at most 256 MB of segments were resident
 * (437 MB with a single arena, 437-467 MB with malloc_trim).
 */
void
releaseEvicted(std::vector<std::shared_ptr<StreamSegment>> &heads)
{
    // A chain frees its first segment, and every one up to its slowest
    // reader, only if its head alone holds it. A head nothing else
    // holds cannot be reached, so its `next` is safe to read here.
    bool freed = false;
    for (std::shared_ptr<StreamSegment> &head : heads) {
        freed = freed ||
                (head.use_count() == 1 && head->next.use_count() == 1);
        head.reset();
    }
#if defined(__GLIBC__)
    if (freed)
        malloc_trim(0); // walks every arena: only when a chain freed
#endif
}

} // namespace

struct StreamEntry
{
    StreamCache::Key key;
    /** The profile and seed the generator is built from, on the first
     *  pull; the profile is checked against every opener. */
    trace::AppProfile profile;
    std::uint64_t stream_seed = 0;

    std::mutex mu;
    /** Positioned just past the last segment of the chain; built on
     *  the first pull. Guarded by mu. */
    std::unique_ptr<core::OpStream> generator;

    /** Bytes charged against the cache budget. Guarded by the CACHE
     *  lock, not mu: it must stay consistent with resident_bytes_. */
    std::size_t accounted_bytes = 0;

    /** The segment after @p segment, generated and linked first if
     *  @p segment ends the chain. */
    std::shared_ptr<StreamSegment> after(StreamSegment &segment,
                                         StreamCache &cache);
};

std::shared_ptr<StreamSegment>
StreamEntry::after(StreamSegment &segment, StreamCache &cache)
{
    std::unique_lock<std::mutex> lock(mu);
    if (segment.next != nullptr)
        return segment.next;

    // Per-thread scratch: a segment's ops and its encoding are the
    // only buffers besides the segment itself, and they are reused.
    thread_local std::vector<core::MemOp> ops(kSegmentOps);
    thread_local std::string encoding;

    if (generator == nullptr) {
        generator = std::make_unique<trace::SyntheticStream>(
            profile, key.geometry, key.slot, stream_seed);
    }
    // Whole segments only: boundaries never depend on which run,
    // thread or batch size pulled the stream first, so neither do the
    // bytes memoized.
    std::size_t got = 0;
    while (got < kSegmentOps) {
        got += generator->nextBatch(ops.data() + got, kSegmentOps - got);
    }
    encodeOps(ops.data(), kSegmentOps, encoding);

    // Sized exactly: appending the slack to an exact-fit string would
    // double its capacity, and segments are what the memo keeps.
    auto next = std::make_shared<StreamSegment>(cache.segments_live_);
    next->data.reserve(encoding.size() + kDecodeSlack);
    next->data.append(encoding);
    next->data.append(kDecodeSlack, '\0');
    next->ops = kSegmentOps;
    segment.next = next;

    std::vector<std::shared_ptr<StreamSegment>> evicted;
    cache.noteExtend(*this, next->data.size(), evicted);
    lock.unlock();
    releaseEvicted(evicted);
    return next;
}

/**
 * The replay half of the memo: decodes the one segment it holds and
 * then follows the chain, so a reader keeps nothing behind it alive.
 * Holds the entry by shared_ptr, so replay keeps working, and extends
 * the chain, even after the LRU evicts the entry.
 */
class MemoReplayStream final : public core::OpStream
{
  public:
    MemoReplayStream(std::shared_ptr<StreamEntry> entry,
                     std::shared_ptr<StreamSegment> head, StreamCache &cache)
        : entry_(std::move(entry)), segment_(std::move(head)), cache_(cache)
    {
    }

    std::size_t
    nextBatch(core::MemOp *out, std::size_t max) override
    {
        if (segment_ == nullptr)
            segment_ = cache_.seek(entry_, index_);
        std::size_t produced = 0;
        while (produced < max) {
            if (left_ == 0) {
                // The segment just decoded is released here, outside
                // the entry lock.
                segment_ = entry_->after(*segment_, cache_);
                ++index_;
                pos_ = 0;
                left_ = segment_->ops;
                prev_addr_ = 0;
            }
            const std::size_t n = std::min(left_, max - produced);
            pos_ = decodeOps(segment_->data.data(), pos_, prev_addr_,
                             out + produced, n);
            left_ -= n;
            produced += n;
        }
        return produced;
    }

    /** Starts on the same op but holds only its position: a warm-up
     *  checkpoint never advances, and a segment it held would keep
     *  every segment its source reads after it alive. The copy finds
     *  its segment again on its first pull (StreamCache::seek). */
    std::unique_ptr<core::OpStream>
    fork() const override
    {
        auto copy = std::make_unique<MemoReplayStream>(*this);
        copy->segment_ = nullptr;
        return copy;
    }

  private:
    std::shared_ptr<StreamEntry> entry_;
    /** The segment being decoded; null in a fork that has not pulled. */
    std::shared_ptr<StreamSegment> segment_;
    StreamCache &cache_;
    /** segment_'s place in the chain (the head is 0), its byte offset
     *  of the next op, and the ops left there. */
    std::size_t index_ = 0;
    std::size_t pos_ = 0;
    std::size_t left_ = 0;
    std::uint64_t prev_addr_ = 0;
};

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

StreamCache::StreamCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes)
{
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

StreamFactory
StreamCache::factory(std::uint64_t run_seed, RunScale scale,
                     std::uint32_t /*topology_cores*/)
{
    const std::string scale_key = api::scaleKeyOf(scale);
    return [this, run_seed, scale_key](
               std::uint32_t c, const trace::AppProfile &profile,
               const trace::StreamGeometry &geometry,
               std::uint64_t stream_seed) -> std::unique_ptr<core::OpStream> {
        Key key;
        key.workload = profile.name;
        key.slot = c;
        key.seed = run_seed;
        key.scale = scale_key;
        key.geometry = geometry;
        return open(key, profile, stream_seed);
    };
}

void
StreamCache::noteExtend(
    const detail::StreamEntry &entry, std::size_t delta,
    std::vector<std::shared_ptr<detail::StreamSegment>> &evicted)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_generated;
    auto it = entries_.find(entry.key);
    if (it == entries_.end() || it->second.entry.get() != &entry) {
        // Evicted (or cleared) while a surviving reader extended it:
        // the entry is no longer budget-accounted, nothing to charge.
        return;
    }
    it->second.touch = ++touch_clock_;
    it->second.entry->accounted_bytes += delta;
    resident_bytes_ += delta;
    evictOverBudget(&entry, evicted);
}

void
StreamCache::evictOverBudget(
    const detail::StreamEntry *keep,
    std::vector<std::shared_ptr<detail::StreamSegment>> &evicted)
{
    while (resident_bytes_ > budget_bytes_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.entry.get() == keep)
                continue;
            if (victim == entries_.end() ||
                it->second.touch < victim->second.touch)
                victim = it;
        }
        if (victim == entries_.end())
            break; // nothing evictable (e.g. only `keep` is resident)
        resident_bytes_ -= victim->second.entry->accounted_bytes;
        evicted.push_back(std::move(victim->second.head));
        entries_.erase(victim);
        ++stats_.streams_evicted;
    }
}

std::unique_ptr<core::OpStream>
StreamCache::open(const Key &key, const trace::AppProfile &profile,
                  std::uint64_t stream_seed)
{
    // The key fixes the stream seed and the entry the app; a mismatch
    // means two different op sequences landed on one memo key.
    const auto label = [&key] {
        return "memoized stream '" + key.workload + "' slot " +
               std::to_string(key.slot);
    };
    if (key.seed + key.slot * 7919 != stream_seed)
        COOPSIM_FATAL(label(), ": seed mismatch (memoized for run seed ",
                      key.seed, ", asked to serve stream seed ",
                      stream_seed, ")");

    std::shared_ptr<detail::StreamEntry> entry;
    std::shared_ptr<detail::StreamSegment> head;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Slot &slot = residentSlot(key, profile, stream_seed, true);
        entry = slot.entry;
        head = slot.head;
    }

    if (entry->profile.name != profile.name)
        COOPSIM_FATAL(label(), ": app mismatch (memoized '",
                      entry->profile.name, "', asked for '", profile.name,
                      "') — distinct profiles share a registry name");

    return std::make_unique<detail::MemoReplayStream>(
        std::move(entry), std::move(head), *this);
}

StreamCache::Slot &
StreamCache::residentSlot(const Key &key, const trace::AppProfile &profile,
                          std::uint64_t stream_seed, bool count_replay)
{
    auto [it, created] = entries_.try_emplace(key);
    Slot &slot = it->second;
    if (created) {
        slot.entry = std::make_shared<detail::StreamEntry>();
        slot.entry->key = key;
        slot.entry->profile = profile;
        slot.entry->stream_seed = stream_seed;
        slot.head = std::make_shared<detail::StreamSegment>(segments_live_);
        ++stats_.streams_generated;
    } else if (count_replay) {
        ++stats_.streams_replayed;
    }
    slot.touch = ++touch_clock_;
    return slot;
}

std::shared_ptr<detail::StreamSegment>
StreamCache::seek(std::shared_ptr<detail::StreamEntry> &entry,
                  std::size_t index)
{
    // The resident chain's head, or a new entry if the LRU evicted the
    // stream: a fork's position means the same ops in either.
    std::shared_ptr<detail::StreamSegment> segment;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const Slot &slot = residentSlot(entry->key, entry->profile,
                                        entry->stream_seed, false);
        entry = slot.entry;
        segment = slot.head;
    }
    for (std::size_t i = 0; i < index; ++i)
        segment = entry->after(*segment, *this);
    return segment;
}

StreamCache::Stats
StreamCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats stats = stats_;
    stats.segments_live = segments_live_.load(std::memory_order_relaxed);
    return stats;
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
