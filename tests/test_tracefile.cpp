/**
 * @file
 * Tests for the frame codec the stream memo holds its streams in
 * (src/tracefile/):
 *
 *  - the zigzag and delta-width primitives round-trip edge values and
 *    random draws;
 *  - encodeFrame -> FrameDecoder is an exact inverse over frames of
 *    full, single-op, odd and short sizes back to back, drained in
 *    batches of 1, 61 and 4096 ops (so reads cross frame boundaries),
 *    with gaps at every varint width edge up to UINT64_MAX;
 *  - frames decode independently of the frames before them;
 *  - the bytes the encoder produces for a synthetic stream are pinned
 *    by digest, so a change that moves the encoder and the decoder
 *    together still fails.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"
#include "tracefile/trace_format.hpp"

using namespace coopsim;
using namespace coopsim::tracefile;

namespace
{

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
        ops.push_back(op);
    }
    return ops;
}

/** Decodes every frame of @p frames (padded with kDecodeSlack bytes)
 *  through FrameDecoder, @p batch ops per call. */
std::vector<core::MemOp>
decodeAll(const std::string &frames, std::size_t batch)
{
    static const std::string label = "test frames";
    FrameDecoder decoder;
    decoder.reset(frames.data(), 0, frames.size() - kDecodeSlack, &label);
    std::vector<core::MemOp> ops;
    std::vector<core::MemOp> buffer(batch);
    for (;;) {
        const std::size_t n = decoder.decode(buffer.data(), batch);
        if (n == 0)
            break;
        EXPECT_LE(n, batch);
        ops.insert(ops.end(), buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(n));
    }
    return ops;
}

void
expectSameOps(const std::vector<core::MemOp> &got,
              const std::vector<core::MemOp> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].addr, want[i].addr) << "op " << i;
        ASSERT_EQ(got[i].gap_insts, want[i].gap_insts) << "op " << i;
        ASSERT_EQ(got[i].type, want[i].type) << "op " << i;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Codec primitives

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
// Frames

TEST(TraceFormat, FrameRoundTripsRandomOps)
{
    // A one-byte varint stays one byte; UINT64_MAX takes the 10-byte
    // ceiling the decoder's varint loop allows.
    std::string varint;
    appendVarint(varint, 0x7f);
    EXPECT_EQ(varint.size(), 1u);
    varint.clear();
    appendVarint(varint, UINT64_MAX);
    EXPECT_EQ(varint.size(), 10u);

    // Gaps at every varint width edge, spread across the frames.
    const std::uint64_t edge_gaps[] = {0,      0x7f,   0x80,
                                       0x3fff, 0x4000, UINT64_MAX};
    std::vector<core::MemOp> ops = sampleOps(2 * kFrameOps + 1925, 5);
    for (std::size_t i = 0; i < ops.size(); i += 97) {
        ops[i].gap_insts = edge_gaps[(i / 97) % std::size(edge_gaps)];
    }

    // Full, single-op, odd and short frames back to back, the way the
    // memo's segments follow each other. One encoding buffer across
    // frames of shrinking and growing sizes: each call must replace
    // the previous frame, not extend it.
    std::string frames;
    std::string reused;
    std::size_t at = 0;
    for (const std::size_t count : {kFrameOps, 1ul, 1000ul, 7ul, kFrameOps,
                                    917ul}) {
        std::string fresh;
        encodeFrame(ops.data() + at, count, fresh);
        encodeFrame(ops.data() + at, count, reused);
        EXPECT_EQ(reused, fresh) << count;
        frames += fresh;
        at += count;
    }
    ASSERT_EQ(at, ops.size());
    frames.append(kDecodeSlack, '\0');

    for (const std::size_t batch : {1ul, 61ul, kFrameOps}) {
        SCOPED_TRACE(batch);
        expectSameOps(decodeAll(frames, batch), ops);
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

    std::vector<core::MemOp> both_ops = a;
    both_ops.insert(both_ops.end(), b.begin(), b.end());
    const std::string only_b = fb + std::string(kDecodeSlack, '\0');
    const std::string both = fa + fb + std::string(kDecodeSlack, '\0');
    for (const std::size_t batch : {1ul, 61ul, kFrameOps}) {
        SCOPED_TRACE(batch);
        expectSameOps(decodeAll(only_b, batch), b);
        expectSameOps(decodeAll(both, batch), both_ops);
    }
}

TEST(TraceFormat, EncodingMatchesPinnedDigest)
{
    // The round-trip tests above cannot see a change that moves the
    // encoder and the decoder together; this pins the bytes the memo
    // holds. FNV-1a over three full frames and a partial one of a
    // synthetic stream, whose own op sequence
    // SyntheticStream.OpSequenceMatchesPinnedDigest (test_trace) pins.
    trace::SyntheticStream stream(trace::specProfile("h264ref"), {128, 64},
                                  1, 42 + 1 * 7919);
    std::vector<core::MemOp> ops(kFrameOps);
    std::string bytes;
    std::string frame;
    for (const std::size_t count : {kFrameOps, kFrameOps, kFrameOps, 917ul}) {
        for (std::size_t got = 0; got < count;) {
            got += stream.nextBatch(ops.data() + got, count - got);
        }
        encodeFrame(ops.data(), count, frame);
        bytes += frame;
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    EXPECT_EQ(bytes.size(), 70422u);
    EXPECT_EQ(h, 0x129ad6674de1ede4ull) << "got 0x" << std::hex << h;
}
