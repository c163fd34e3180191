/**
 * @file
 * Tests for the trace record/replay subsystem (src/tracefile/):
 *
 *  - the varint and zigzag codec primitives round-trip edge values
 *    and random draws, and reject truncated input;
 *  - header and frame encode/decode are exact inverses, and the
 *    malformed-trace matrix (bad magic, wrong version, flipped CRC,
 *    truncation, trailing bytes) is rejected with the right severity:
 *    registration-time scanning warns and skips, replay-time streams
 *    fail fast with a descriptive fatal (mirroring the result store's
 *    load-versus-save contract);
 *  - encodeTrace -> store::writeFileDurably -> StreamCache::
 *    openTraceFile round-trips an op sequence bit-exactly through the
 *    on-disk format, and a failed write leaves neither the file nor
 *    its `.tmp`;
 *  - hostile input: seeded mutants of a multi-frame file (bit flips,
 *    truncations, dropped / duplicated / swapped frames, crafted
 *    10-byte op counts) either load and replay exactly what the
 *    reference decodeFrame() yields, or are rejected at load;
 *  - registerTraceDir() turns a directory of `.cooptrace` sets into
 *    `trace:<name>` workload registrations, skipping incomplete or
 *    inconsistent sets;
 *  - record -> replay produces byte-identical store::formatResult
 *    lines over {2, 4, 8}-core groups x {coop, ucp} x two
 *    partitioners x memo on/off (the subsystem's reason to exist);
 *  - a fatal during a replay on an executor worker (a seed mismatch,
 *    or a trace that runs dry) exits with status 1 instead of
 *    aborting or hanging at exit.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "sim/executor.hpp"
#include "sim/stream_cache.hpp"
#include "store/result_store.hpp"
#include "trace/workloads.hpp"
#include "tracefile/record.hpp"
#include "tracefile/trace_format.hpp"
#include "tracefile/trace_workloads.hpp"

using namespace coopsim;
using namespace coopsim::tracefile;

namespace fs = std::filesystem;

namespace
{

std::string
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / ("coopsim_trace_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** A deterministic op sequence shaped like the synthetic streams:
 *  small strides with occasional far jumps, geometric-ish gaps. */
std::vector<core::MemOp>
sampleOps(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<core::MemOp> ops;
    ops.reserve(count);
    Addr addr = 0x10000;
    for (std::size_t i = 0; i < count; ++i) {
        core::MemOp op;
        if (rng.nextBool(0.1)) {
            addr = rng.next() & ((1ull << 40) - 1); // far jump
        } else {
            addr += 64 * (1 + rng.nextBelow(8));    // local stride
        }
        op.addr = addr;
        op.gap_insts = rng.nextBelow(32);
        op.type = rng.nextBool(0.3) ? AccessType::Write
                                    : AccessType::Read;
        op.llc_level = rng.nextBool(0.5);
        ops.push_back(op);
    }
    return ops;
}

void
expectOpsEqual(const core::MemOp &a, const core::MemOp &b,
               std::size_t index)
{
    EXPECT_EQ(a.addr, b.addr) << "op " << index;
    EXPECT_EQ(a.gap_insts, b.gap_insts) << "op " << index;
    EXPECT_EQ(a.type, b.type) << "op " << index;
    EXPECT_EQ(a.llc_level, b.llc_level) << "op " << index;
}

TraceHeader
sampleHeader()
{
    TraceHeader header;
    header.core = 1;
    header.num_cores = 2;
    header.seed = 42;
    header.llc_sets = 128;
    header.block_bytes = 64;
    header.workload = "G2-3";
    header.app = "h264ref";
    header.scale = "test";
    return header;
}

/** Serves a fixed op sequence, as a recording pass reads a stream. */
class VectorStream final : public core::OpStream
{
  public:
    explicit VectorStream(const std::vector<core::MemOp> &ops) : ops_(ops)
    {
    }

    core::MemOp
    next() override
    {
        return ops_.at(pos_++);
    }

  private:
    const std::vector<core::MemOp> &ops_;
    std::size_t pos_ = 0;
};

/** The complete file image `--record` would write for @p ops. */
std::string
traceImage(const TraceHeader &header, const std::vector<core::MemOp> &ops)
{
    VectorStream stream(ops);
    return encodeTrace(header, stream, ops.size());
}

/** Writes @p ops as a complete trace file at @p path. */
void
writeTrace(const std::string &path, const TraceHeader &header,
           const std::vector<core::MemOp> &ops)
{
    std::string error;
    ASSERT_TRUE(store::writeFileDurably(path, traceImage(header, ops), error))
        << error;
}

/**
 * Replays @p path the way a `trace:` run does, through a fresh memo
 * entry: a failed open leaves its key's entry holding the failure, so
 * every call starts from an empty cache.
 */
std::unique_ptr<core::OpStream>
openReplay(const std::string &path, const TraceHeader &header)
{
    sim::StreamCache::instance().clear();
    sim::StreamCache::Key key;
    key.workload = std::string(kTracePrefix) + header.workload;
    key.slot = header.core;
    return sim::StreamCache::instance().openTraceFile(key, path, header);
}

/** Byte offset of frame @p index of the trace image @p data. */
std::size_t
frameOffset(const std::string &data, std::size_t index)
{
    std::string padded = data;
    padded.append(kDecodeSlack, '\0');
    std::size_t pos = 0;
    TraceHeader header;
    std::vector<core::MemOp> ops;
    std::string error;
    EXPECT_TRUE(decodeHeader(padded, pos, header, error)) << error;
    for (std::size_t i = 0; i < index; ++i) {
        EXPECT_EQ(decodeFrame(padded, pos, ops, error), FrameStatus::Ok)
            << error;
    }
    return pos;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const std::string &data)
{
    // A new file each time: rewriting a truncated one makes the file
    // system flush it on close, ~50 ms per write on ext4.
    fs::remove(path);
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size()));
}

} // namespace

// ---------------------------------------------------------------------------
// Codec primitives

TEST(TraceCodec, VarintRoundTripsEdgeAndRandomValues)
{
    std::vector<std::uint64_t> values = {
        0,       1,          0x7f,      0x80,       0x3fff,
        0x4000,  0x1fffff,   0x200000,  0xffffffff, 1ull << 56,
        (1ull << 63) - 1,    1ull << 63, UINT64_MAX};
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        values.push_back(rng.next() >> rng.nextBelow(64));
    }

    std::string buffer;
    for (const std::uint64_t v : values) {
        appendVarint(buffer, v);
    }
    std::size_t pos = 0;
    for (const std::uint64_t v : values) {
        std::uint64_t decoded = 0;
        ASSERT_TRUE(readVarint(buffer, pos, decoded));
        EXPECT_EQ(decoded, v);
    }
    EXPECT_EQ(pos, buffer.size());

    // A single-byte value uses one byte; UINT64_MAX uses the 10-byte
    // ceiling the reader enforces.
    std::string one;
    appendVarint(one, 0x7f);
    EXPECT_EQ(one.size(), 1u);
    std::string ten;
    appendVarint(ten, UINT64_MAX);
    EXPECT_EQ(ten.size(), 10u);
}

TEST(TraceCodec, VarintRejectsTruncationAndOverlongRuns)
{
    std::string buffer;
    appendVarint(buffer, UINT64_MAX);
    for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
        const std::string prefix = buffer.substr(0, cut);
        std::size_t pos = 0;
        std::uint64_t value = 0;
        EXPECT_FALSE(readVarint(prefix, pos, value)) << cut;
    }
    // 11 continuation bytes: longer than any valid u64 encoding.
    const std::string overlong(11, '\xff');
    std::size_t pos = 0;
    std::uint64_t value = 0;
    EXPECT_FALSE(readVarint(overlong, pos, value));
}

TEST(TraceCodec, ZigzagRoundTripsAndOrdersSmallMagnitudes)
{
    const std::int64_t values[] = {0,  -1, 1,  -2, 2,
                                   64, -64, INT64_MAX, INT64_MIN};
    for (const std::int64_t v : values) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
    // Small magnitudes map to small codes (the property the delta
    // compression relies on).
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);

    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const auto v = static_cast<std::int64_t>(rng.next());
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
}

TEST(TraceCodec, DeltaLenMatchesByteWidth)
{
    EXPECT_EQ(deltaLen(0), 0u);
    EXPECT_EQ(deltaLen(1), 1u);
    EXPECT_EQ(deltaLen(0xff), 1u);
    EXPECT_EQ(deltaLen(0x100), 2u);
    EXPECT_EQ(deltaLen(0xffffff), 3u);
    EXPECT_EQ(deltaLen(1ull << 32), 5u);
    EXPECT_EQ(deltaLen(UINT64_MAX), 8u);
    for (std::size_t len = 1; len <= 8; ++len) {
        EXPECT_EQ(deltaLen(kLenMask[len]), len);
    }
}

// ---------------------------------------------------------------------------
// Header and frame round-trips

TEST(TraceFormat, HeaderRoundTripsExactly)
{
    const TraceHeader header = sampleHeader();
    std::string data = encodeHeader(header);
    data.append(kDecodeSlack, '\0');

    std::size_t pos = 0;
    TraceHeader decoded;
    std::string error;
    ASSERT_TRUE(decodeHeader(data, pos, decoded, error)) << error;
    EXPECT_EQ(decoded, header);
    EXPECT_EQ(pos, data.size() - kDecodeSlack);
}

TEST(TraceFormat, HeaderRejectsMalformedInput)
{
    const std::string good = encodeHeader(sampleHeader());
    TraceHeader decoded;
    std::string error;
    std::size_t pos = 0;

    // Bad magic.
    std::string bad = good;
    bad[0] = 'X';
    bad.append(kDecodeSlack, '\0');
    EXPECT_FALSE(decodeHeader(bad, pos, decoded, error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    // Unsupported version (field after the 8-byte magic).
    bad = good;
    bad[8] = '\x7f';
    bad.append(kDecodeSlack, '\0');
    pos = 0;
    EXPECT_FALSE(decodeHeader(bad, pos, decoded, error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    // Flipped payload byte -> CRC mismatch.
    bad = good;
    bad[20] ^= 0x01;
    bad.append(kDecodeSlack, '\0');
    pos = 0;
    EXPECT_FALSE(decodeHeader(bad, pos, decoded, error));
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;

    // Every truncation point fails cleanly.
    for (std::size_t cut = 0; cut < good.size(); cut += 3) {
        std::string prefix = good.substr(0, cut);
        prefix.append(kDecodeSlack, '\0');
        pos = 0;
        EXPECT_FALSE(decodeHeader(prefix, pos, decoded, error)) << cut;
    }
}

TEST(TraceFormat, FrameRoundTripsRandomOps)
{
    // One encoding buffer across frames of shrinking and growing
    // sizes: each call must replace the previous frame, not extend it.
    std::string reused;
    for (const std::size_t count : {kFrameOps, 1ul, 1000ul, 7ul}) {
        const std::vector<core::MemOp> ops = sampleOps(count, count);
        std::string data;
        encodeFrame(ops.data(), ops.size(), data);
        encodeFrame(ops.data(), ops.size(), reused);
        EXPECT_EQ(reused, data) << count;
        data.append(kDecodeSlack, '\0');

        std::size_t pos = 0;
        std::vector<core::MemOp> decoded;
        std::string error;
        ASSERT_EQ(decodeFrame(data, pos, decoded, error),
                  FrameStatus::Ok)
            << error;
        ASSERT_EQ(decoded.size(), ops.size());
        for (std::size_t i = 0; i < ops.size(); ++i) {
            expectOpsEqual(decoded[i], ops[i], i);
        }
        EXPECT_EQ(pos, data.size() - kDecodeSlack);
    }
}

TEST(TraceFormat, FramesDecodeIndependently)
{
    // prev_addr resets per frame: decoding the second frame without
    // the first yields the same ops.
    const std::vector<core::MemOp> a = sampleOps(100, 1);
    const std::vector<core::MemOp> b = sampleOps(100, 2);
    std::string fa, fb;
    encodeFrame(a.data(), a.size(), fa);
    encodeFrame(b.data(), b.size(), fb);

    std::string only_b = fb;
    only_b.append(kDecodeSlack, '\0');
    std::size_t pos = 0;
    std::vector<core::MemOp> decoded;
    std::string error;
    ASSERT_EQ(decodeFrame(only_b, pos, decoded, error), FrameStatus::Ok);
    ASSERT_EQ(decoded.size(), b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
        expectOpsEqual(decoded[i], b[i], i);
    }

    std::string both = fa + fb;
    both.append(kDecodeSlack, '\0');
    pos = 0;
    ASSERT_EQ(decodeFrame(both, pos, decoded, error), FrameStatus::Ok);
    ASSERT_EQ(decodeFrame(both, pos, decoded, error), FrameStatus::Ok);
    for (std::size_t i = 0; i < b.size(); ++i) {
        expectOpsEqual(decoded[i], b[i], i);
    }
    EXPECT_EQ(decodeFrame(both, pos, decoded, error), FrameStatus::End);
}

TEST(TraceFormat, FrameRejectsCorruptionTruncationAndTrailingBytes)
{
    const std::vector<core::MemOp> ops = sampleOps(200, 3);
    std::string good;
    encodeFrame(ops.data(), ops.size(), good);
    std::vector<core::MemOp> decoded;
    std::string error;
    std::size_t pos;

    // Flipped payload byte -> CRC mismatch.
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x10;
    bad.append(kDecodeSlack, '\0');
    pos = 0;
    EXPECT_EQ(decodeFrame(bad, pos, decoded, error),
              FrameStatus::Corrupt);
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;

    // Truncation anywhere -> Corrupt (never Ok, never a crash).
    for (std::size_t cut = 1; cut < good.size(); cut += 7) {
        std::string prefix = good.substr(0, cut);
        prefix.append(kDecodeSlack, '\0');
        pos = 0;
        EXPECT_EQ(decodeFrame(prefix, pos, decoded, error),
                  FrameStatus::Corrupt)
            << cut;
    }
}

// ---------------------------------------------------------------------------
// Writer -> replay round-trip

TEST(TraceFileWrite, ReplayReadsBackExactlyWhatWasWritten)
{
    const std::string dir = scratchDir("roundtrip");
    const std::string path = dir + "/G2-3.1.cooptrace";
    // Deliberately not a multiple of kFrameOps: exercises the short
    // tail frame.
    const std::vector<core::MemOp> ops = sampleOps(3 * kFrameOps + 917, 5);
    writeTrace(path, sampleHeader(), ops);

    // The atomic-write protocol left no tmp orphan.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_TRUE(fs::exists(path));

    TraceFile file;
    std::string error;
    ASSERT_TRUE(loadTraceFile(path, file, error)) << error;
    EXPECT_EQ(file.header, sampleHeader());
    EXPECT_EQ(file.ops, ops.size());

    // Drain through odd-sized batches so reads cross frame boundaries.
    const auto stream = openReplay(path, sampleHeader());
    std::vector<core::MemOp> got;
    core::MemOp buffer[61];
    while (got.size() < ops.size()) {
        const std::size_t max =
            std::min<std::size_t>(61, ops.size() - got.size());
        const std::size_t n = stream->nextBatch(buffer, max);
        ASSERT_GT(n, 0u);
        ASSERT_LE(n, max);
        got.insert(got.end(), buffer, buffer + n);
    }
    ASSERT_EQ(got.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        expectOpsEqual(got[i], ops[i], i);
    }
}

TEST(TraceFileWrite, FailedWriteLeavesNoFileAndNoTemp)
{
    const std::string dir = scratchDir("abandon");
    const std::string path = dir + "/G2-3.0.cooptrace";
    const std::string image =
        traceImage(sampleHeader(), sampleOps(kFrameOps, 1));

    // A file-size limit below the image makes the write loop fail
    // part-way through (EFBIG instead of the default SIGXFSZ).
    struct rlimit saved;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit small = saved;
    small.rlim_cur = image.size() / 2;
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
    std::string error;
    const bool written = store::writeFileDurably(path, image, error);
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);

    EXPECT_FALSE(written);
    EXPECT_NE(error.find("write"), std::string::npos) << error;
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    // A failed rename is different: the synced temp file holds every
    // byte, so it stays, named in the error.
    const std::string blocked = dir + "/blocked";
    fs::create_directories(blocked + "/occupied");
    EXPECT_FALSE(store::writeFileDurably(blocked, image, error));
    EXPECT_NE(error.find(blocked + ".tmp"), std::string::npos) << error;
    EXPECT_EQ(slurp(blocked + ".tmp"), image);
}

// ---------------------------------------------------------------------------
// Malformed traces at replay time: descriptive fatals

TEST(TraceReplayOpen, MalformedFilesAreFatalWithReasons)
{
    const std::string dir = scratchDir("malformed");
    const std::string path = dir + "/G2-3.1.cooptrace";
    writeTrace(path, sampleHeader(), sampleOps(kFrameOps + 100, 9));
    const std::string good = slurp(path);

    setThrowOnFatal(true);

    // Bad magic: rejected at open.
    std::string bad = good;
    bad[3] = 'X';
    spit(path, bad);
    EXPECT_THROW(openReplay(path, sampleHeader()), FatalError);

    // Wrong version: rejected at open.
    bad = good;
    bad[8] = '\x09';
    spit(path, bad);
    EXPECT_THROW(openReplay(path, sampleHeader()), FatalError);

    // A flipped byte inside the second frame: every frame's CRC is
    // checked when the file is loaded, so the corruption is fatal at
    // open — before a single op reaches a simulation.
    bad = good;
    bad[bad.size() - 20] ^= 0x40;
    spit(path, bad);
    EXPECT_THROW(openReplay(path, sampleHeader()), FatalError);

    // Truncation mid-frame is equally fatal at open.
    spit(path, good.substr(0, good.size() - 10));
    EXPECT_THROW(openReplay(path, sampleHeader()), FatalError);

    // The op count precedes the CRC-covered payload, so only checking
    // it against the payload catches a flipped count (4096 -> 4097):
    // at open, not after the first frame has been simulated.
    bad = good;
    bad[frameOffset(good, 1)] ^= 0x01;
    spit(path, bad);
    TraceFile file;
    std::string error;
    EXPECT_FALSE(loadTraceFile(path, file, error));
    EXPECT_NE(error.find("frame 1"), std::string::npos) << error;
    EXPECT_THROW(openReplay(path, sampleHeader()), FatalError);

    // Exhaustion: a clean file that simply ends is fatal once the
    // simulation asks for more than was recorded.
    spit(path, good);
    {
        const auto stream = openReplay(path, sampleHeader());
        core::MemOp op;
        std::size_t drained = 0;
        EXPECT_THROW(
            {
                for (;;) {
                    drained += stream->nextBatch(&op, 1);
                }
            },
            FatalError);
        EXPECT_EQ(drained, kFrameOps + 100);
    }

    setThrowOnFatal(false);
    sim::StreamCache::instance().clear();
}

// ---------------------------------------------------------------------------
// Hostile input: seeded mutants of one multi-frame file

namespace
{

/** What the reference decoder makes of a file image: every op, or
 *  false where the file should be rejected. */
bool
referenceDecode(const std::string &image, std::vector<core::MemOp> &out)
{
    std::string data = image;
    data.append(kDecodeSlack, '\0');
    std::size_t pos = 0;
    TraceHeader header;
    std::string error;
    out.clear();
    if (!decodeHeader(data, pos, header, error)) {
        return false;
    }
    std::vector<core::MemOp> frame;
    for (;;) {
        switch (decodeFrame(data, pos, frame, error)) {
        case FrameStatus::End:
            return true;
        case FrameStatus::Corrupt:
            return false;
        case FrameStatus::Ok:
            out.insert(out.end(), frame.begin(), frame.end());
            break;
        }
    }
}

/** @p value as a 10-byte varint (the longest encoding a reader takes). */
std::string
tenByteVarint(std::uint64_t value)
{
    std::string out;
    for (int i = 0; i < 9; ++i) {
        out.push_back(static_cast<char>(((value >> (7 * i)) & 0x7f) | 0x80));
    }
    out.push_back(static_cast<char>(value >> 63));
    return out;
}

} // namespace

TEST(TraceHostileInput, MutantsReplayLikeTheReferenceOrAreRejected)
{
    const std::string dir = scratchDir("hostile");
    const std::string path = dir + "/G2-3.1.cooptrace";
    const std::string good =
        traceImage(sampleHeader(), sampleOps(2 * kFrameOps + 300, 21));

    // Split the image into its header and its three frames (the last
    // one short), remembering each frame's op count.
    std::vector<std::size_t> bounds;
    for (std::size_t i = 0; i < 3; ++i) {
        bounds.push_back(frameOffset(good, i));
    }
    bounds.push_back(good.size());
    const std::string header = good.substr(0, bounds[0]);
    std::vector<std::string> frames;
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        frames.push_back(good.substr(bounds[i], bounds[i + 1] - bounds[i]));
    }
    ASSERT_EQ(frames.size(), 3u);
    const std::uint64_t counts[] = {kFrameOps, kFrameOps, 300};
    const auto join = [&header](const std::vector<std::string> &parts) {
        std::string out = header;
        for (const std::string &part : parts) {
            out += part;
        }
        return out;
    };

    Rng rng(2026);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    setQuiet(true);
    setThrowOnFatal(true);
    for (int trial = 0; trial < 1000; ++trial) {
        std::string mutant;
        std::vector<std::string> parts = frames;
        const std::size_t f = rng.nextBelow(frames.size());
        switch (rng.nextBelow(7)) {
        case 0: // bit flips anywhere
            mutant = good;
            for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n) {
                mutant[rng.nextBelow(mutant.size())] ^=
                    static_cast<char>(1u << rng.nextBelow(8));
            }
            break;
        case 1: // a bit flip inside the header
            mutant = good;
            mutant[rng.nextBelow(header.size())] ^=
                static_cast<char>(1u << rng.nextBelow(8));
            break;
        case 2: // truncation
            mutant = good.substr(0, rng.nextBelow(good.size()));
            break;
        case 3: // a dropped frame
            parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(f));
            mutant = join(parts);
            break;
        case 4: // a duplicated frame
            parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(
                                             rng.nextBelow(parts.size() + 1)),
                         frames[f]);
            mutant = join(parts);
            break;
        case 5: // two frames swapped
            std::swap(parts[f], parts[rng.nextBelow(parts.size())]);
            mutant = join(parts);
            break;
        default: { // a crafted 10-byte op count, right or wrong
            const std::uint64_t values[] = {
                counts[f], counts[f] + 1, counts[f] - 1, 1ull << 62,
                ~0ull, rng.next()};
            std::string &frame = parts[f];
            std::size_t varint_end = 0;
            while (frame[varint_end] & 0x80) {
                ++varint_end;
            }
            frame.replace(0, varint_end + 1,
                          tenByteVarint(values[rng.nextBelow(6)]));
            mutant = join(parts);
            break;
        }
        }

        std::vector<core::MemOp> want;
        const bool reference_ok = referenceDecode(mutant, want);
        spit(path, mutant);
        TraceFile file;
        std::string error;
        const bool loaded = loadTraceFile(path, file, error);
        ASSERT_EQ(loaded, reference_ok) << "trial " << trial << ": " << error;
        if (!loaded) {
            ++rejected;
            continue;
        }
        ++accepted;
        ASSERT_EQ(file.ops, want.size()) << "trial " << trial;

        // Replay exactly the reference's ops, then run dry: any
        // decode-time fatal would throw here instead.
        const auto stream = openReplay(path, file.header);
        std::vector<core::MemOp> got(want.size());
        for (std::size_t done = 0; done < got.size();) {
            done += stream->nextBatch(
                got.data() + done,
                std::min<std::size_t>(61, got.size() - done));
        }
        for (std::size_t i = 0; i < want.size(); ++i) {
            expectOpsEqual(got[i], want[i], i);
        }
        core::MemOp extra;
        EXPECT_THROW(stream->nextBatch(&extra, 1), FatalError)
            << "trial " << trial;
    }
    setThrowOnFatal(false);
    setQuiet(false);
    sim::StreamCache::instance().clear();
    // The mix exercises both outcomes.
    EXPECT_GT(accepted, 50u);
    EXPECT_GT(rejected, 50u);
}

// ---------------------------------------------------------------------------
// Directory scanning: warn-and-skip like the result store's loadDir

TEST(TraceWorkloads, RegisterTraceDirAcceptsCompleteSets)
{
    const std::string dir = scratchDir("register");
    for (std::uint32_t c = 0; c < 2; ++c) {
        TraceHeader header = sampleHeader();
        header.core = c;
        header.workload = "regtest";
        header.app = c == 0 ? "sjeng" : "calculix";
        writeTrace(dir + "/" + traceFileName("regtest", c), header,
                   sampleOps(100, c));
    }
    EXPECT_EQ(registerTraceDir(dir), 1u);
    // Idempotent: a second scan of the same directory is a no-op.
    EXPECT_EQ(registerTraceDir(dir), 0u);

    ASSERT_TRUE(api::workloadRegistry().contains("trace:regtest"));
    const trace::WorkloadGroup &group =
        api::workloadRegistry().get("trace:regtest");
    ASSERT_EQ(group.apps.size(), 2u);
    EXPECT_EQ(group.apps[0], "sjeng");
    EXPECT_EQ(group.apps[1], "calculix");
    EXPECT_EQ(traceHeaderOf("trace:regtest", 1).app, "calculix");
    EXPECT_NE(traceFilePath("trace:regtest", 0).find("regtest.0"),
              std::string::npos);

    // Glob resolution covers trace: names like any other workload.
    const auto resolved = api::resolveWorkloads("trace:regtest");
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0].name, "trace:regtest");
}

TEST(TraceWorkloads, IncompleteAndInconsistentSetsAreSkipped)
{
    setQuiet(true);

    // Missing core file: headers say 2 cores, only core 0 present.
    {
        const std::string dir = scratchDir("incomplete");
        TraceHeader header = sampleHeader();
        header.core = 0;
        header.workload = "halfset";
        writeTrace(dir + "/" + traceFileName("halfset", 0), header,
                   sampleOps(50, 1));
        EXPECT_EQ(registerTraceDir(dir), 0u);
        EXPECT_FALSE(api::workloadRegistry().contains("trace:halfset"));
    }

    // Cross-core seed mismatch.
    {
        const std::string dir = scratchDir("mixedseed");
        for (std::uint32_t c = 0; c < 2; ++c) {
            TraceHeader header = sampleHeader();
            header.core = c;
            header.workload = "mixedseed";
            header.seed = 42 + c; // inconsistent
            writeTrace(dir + "/" + traceFileName("mixedseed", c),
                       header, sampleOps(50, c));
        }
        EXPECT_EQ(registerTraceDir(dir), 0u);
        EXPECT_FALSE(
            api::workloadRegistry().contains("trace:mixedseed"));
    }

    // Header core disagreeing with the filename suffix.
    {
        const std::string dir = scratchDir("renamed");
        TraceHeader header = sampleHeader();
        header.core = 0;
        header.num_cores = 1;
        header.workload = "renamed";
        writeTrace(dir + "/" + traceFileName("renamed", 1), header,
                   sampleOps(50, 1));
        EXPECT_EQ(registerTraceDir(dir), 0u);
        EXPECT_FALSE(api::workloadRegistry().contains("trace:renamed"));
    }

    // A corrupt header (flipped byte) in one file poisons only its
    // own set.
    {
        const std::string dir = scratchDir("poison");
        for (std::uint32_t c = 0; c < 2; ++c) {
            TraceHeader header = sampleHeader();
            header.core = c;
            header.workload = "poisoned";
            writeTrace(dir + "/" + traceFileName("poisoned", c),
                       header, sampleOps(50, c));
        }
        TraceHeader header = sampleHeader();
        header.core = 0;
        header.num_cores = 1;
        header.workload = "clean";
        header.app = "sjeng";
        writeTrace(dir + "/" + traceFileName("clean", 0), header,
                   sampleOps(50, 7));

        const std::string victim =
            dir + "/" + traceFileName("poisoned", 0);
        std::string data = slurp(victim);
        data[16] ^= 0x01;
        spit(victim, data);

        EXPECT_EQ(registerTraceDir(dir), 1u);
        EXPECT_FALSE(api::workloadRegistry().contains("trace:poisoned"));
        EXPECT_TRUE(api::workloadRegistry().contains("trace:clean"));
    }

    setQuiet(false);
}

// ---------------------------------------------------------------------------
// The tentpole: record -> replay bit-identity

TEST(TraceReplay, ReplayedResultsAreByteIdenticalAcrossTopologies)
{
    const std::string dir = scratchDir("replay");

    // 2-, 4- and 8-core groups; two schemes; two partitioners.
    api::ExperimentSpec spec;
    spec.name = "replay_identity";
    spec.groups = {"G2-1", "G4-1", "G8-mem1"};
    spec.schemes = {"coop", "ucp"};
    spec.baseline = "coop";
    spec.partitioners = {"lookahead", "greedy"};
    spec.with_solo = false;
    spec.scale = "test";

    ASSERT_GT(recordSpec(spec, dir), 0u);
    ASSERT_GT(registerTraceDir(dir), 0u);

    const std::vector<sim::RunKey> keys = api::expandSpec(spec);
    ASSERT_EQ(keys.size(), 3u * 2u * 2u);
    // Memo off (--no-stream-memo) regenerates the synthetic side per
    // run; the trace side goes through the memo's loader either way.
    for (const bool memo : {true, false}) {
        sim::StreamCache::instance().configure({memo, 0});
        for (const sim::RunKey &generated_key : keys) {
            const sim::RunResult generated = sim::executeRun(generated_key);

            sim::RunKey replay_key = generated_key;
            replay_key.name =
                std::string(kTracePrefix) + generated_key.name;
            const sim::RunResult replayed = sim::executeRun(replay_key);

            EXPECT_EQ(store::formatResult(generated),
                      store::formatResult(replayed))
                << api::formatRunKey(generated_key) << " memo=" << memo;
        }
    }
    sim::StreamCache::instance().configure({});
}

TEST(TraceReplay, SeedAndScaleMismatchesAreFatal)
{
    const std::string dir = scratchDir("mismatch");

    api::ExperimentSpec spec;
    spec.name = "mismatch";
    spec.groups = {"G2-2"};
    spec.schemes = {"coop"};
    spec.baseline = "coop";
    spec.with_solo = false;
    spec.scale = "test";

    ASSERT_GT(recordSpec(spec, dir), 0u);
    ASSERT_GT(registerTraceDir(dir), 0u);

    sim::RunKey key = api::expandSpec(spec).front();
    key.name = "trace:G2-2";

    setThrowOnFatal(true);
    sim::RunKey wrong_seed = key;
    wrong_seed.seed = 43;
    EXPECT_THROW(sim::executeRun(wrong_seed), FatalError);

    sim::RunKey wrong_scale = key;
    wrong_scale.scale = sim::RunScale::Bench;
    EXPECT_THROW(sim::executeRun(wrong_scale), FatalError);

    // Re-recording a replay is refused.
    api::ExperimentSpec rerecord = spec;
    rerecord.groups = {"trace:G2-2"};
    EXPECT_THROW(recordSpec(rerecord, scratchDir("rerecord")),
                 FatalError);

    // Recording a multi-seed sweep is refused (a trace pins one seed).
    api::ExperimentSpec multiseed = spec;
    multiseed.seeds = {42, 43};
    EXPECT_THROW(recordSpec(multiseed, scratchDir("multiseed")),
                 FatalError);
    setThrowOnFatal(false);
}

// ---------------------------------------------------------------------------
// A fatal during a replay exits 1: never an abort, never a hang

namespace
{

/** Records G2-2 at test scale into @p name's scratch directory and
 *  returns the directory and the RunKey replaying it. */
std::string
recordG22(const std::string &name, sim::RunKey &replay_key)
{
    const std::string dir = scratchDir(name);
    api::ExperimentSpec spec;
    spec.name = name;
    spec.groups = {"G2-2"};
    spec.schemes = {"coop"};
    spec.baseline = "coop";
    spec.with_solo = false;
    spec.scale = "test";
    EXPECT_GT(recordSpec(spec, dir), 0u);
    replay_key = api::expandSpec(spec).front();
    replay_key.name = "trace:G2-2";
    return dir;
}

} // namespace

TEST(TraceReplayDeathTest, FatalOnAnExecutorWorkerExitsOne)
{
    // exit() runs on the failing worker, so exit-time code must not
    // join that worker from itself.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    sim::RunKey key;
    const std::string dir = recordG22("death_worker", key);
    key.seed = 43; // not the recorded seed: fatal in the stream factory
    EXPECT_EXIT(
        {
            ::alarm(20); // a hang fails the test instead of stalling it
            registerTraceDir(dir);
            sim::RunExecutor &executor = sim::RunExecutor::instance();
            executor.setThreads(2);
            executor.prefetch({key}); // queued for a worker
            for (;;) {
                ::pause(); // this thread never helps run it
            }
        },
        testing::ExitedWithCode(1), "recorded with seed 42");
}

TEST(TraceReplayDeathTest, ExhaustionOnAnExecutorWorkerExitsOne)
{
    // The trace runs dry mid-run on a worker: the fatal must exit 1
    // without leaving the memo entry locked or joining that worker.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    sim::RunKey key;
    const std::string dir = recordG22("death_exhaust", key);
    const std::string path = dir + "/" + traceFileName("G2-2", 0);
    const std::string data = slurp(path);
    spit(path, data.substr(0, frameOffset(data, 1))); // one frame left
    EXPECT_EXIT(
        {
            ::alarm(20);
            registerTraceDir(dir);
            sim::RunExecutor &executor = sim::RunExecutor::instance();
            executor.setThreads(2);
            executor.prefetch({key}); // queued for a worker
            for (;;) {
                ::pause(); // this thread never helps run it
            }
        },
        testing::ExitedWithCode(1), "exhausted after 4096 ops");
}
