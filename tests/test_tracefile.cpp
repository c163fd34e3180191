/**
 * @file
 * Tests for the segment codec the stream memo holds its op traces in
 * (encodeOps / decodeOps in sim/stream_cache.hpp):
 *
 *  - the zigzag and delta-width primitives round-trip edge values and
 *    random draws;
 *  - encodeOps -> decodeOps is an exact inverse over a segment of
 *    random ops with gaps of every varint width up to UINT64_MAX,
 *    drained in batches of 1, 61 and 4096 ops;
 *  - the bytes the encoder produces for a synthetic stream are pinned
 *    by digest, so a change that moves the encoder and the decoder
 *    together still fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/stream_cache.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

using namespace coopsim;

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

/** Decodes @p count ops from @p encoding (padded with kDecodeSlack
 *  bytes), @p batch ops per call. */
std::vector<core::MemOp>
decodeAll(const std::string &encoding, std::size_t count, std::size_t batch)
{
    std::vector<core::MemOp> ops(count);
    std::size_t pos = 0;
    std::uint64_t prev_addr = 0;
    for (std::size_t at = 0; at < count; at += batch) {
        const std::size_t n = std::min(batch, count - at);
        pos = sim::decodeOps(encoding.data(), pos, prev_addr,
                             ops.data() + at, n);
    }
    EXPECT_EQ(pos, encoding.size() - sim::kDecodeSlack);
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

TEST(SegmentCodec, ZigzagRoundTripsAndOrdersSmallMagnitudes)
{
    const std::int64_t values[] = {0,  -1, 1,  -2, 2,
                                   64, -64, INT64_MAX, INT64_MIN};
    for (const std::int64_t v : values) {
        EXPECT_EQ(sim::zigzagDecode(sim::zigzagEncode(v)), v);
    }
    // Small magnitudes map to small codes (the property the delta
    // compression relies on).
    EXPECT_EQ(sim::zigzagEncode(0), 0u);
    EXPECT_EQ(sim::zigzagEncode(-1), 1u);
    EXPECT_EQ(sim::zigzagEncode(1), 2u);
    EXPECT_EQ(sim::zigzagEncode(-2), 3u);

    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const auto v = static_cast<std::int64_t>(rng.next());
        EXPECT_EQ(sim::zigzagDecode(sim::zigzagEncode(v)), v);
    }
}

TEST(SegmentCodec, DeltaLenMatchesByteWidth)
{
    EXPECT_EQ(sim::deltaLen(0), 0u);
    EXPECT_EQ(sim::deltaLen(1), 1u);
    EXPECT_EQ(sim::deltaLen(0xff), 1u);
    EXPECT_EQ(sim::deltaLen(0x100), 2u);
    EXPECT_EQ(sim::deltaLen(0xffffff), 3u);
    EXPECT_EQ(sim::deltaLen(1ull << 32), 5u);
    EXPECT_EQ(sim::deltaLen(UINT64_MAX), 8u);
    for (std::size_t len = 1; len <= 8; ++len) {
        const std::uint64_t widest = UINT64_MAX >> (64 - 8 * len);
        EXPECT_EQ(sim::deltaLen(widest), len);
        EXPECT_EQ(sim::deltaLen(widest + 1), len == 8 ? 0u : len + 1);
    }
}

TEST(SegmentCodec, RoundTripsGapsOfEveryVarintWidth)
{
    // One op costs its flags byte, its gap's varint and its delta: a
    // gap below 0x80 takes one byte, UINT64_MAX the 10-byte ceiling.
    std::string encoding;
    const core::MemOp small{0x7f, 0, AccessType::Read};
    sim::encodeOps(&small, 1, encoding);
    EXPECT_EQ(encoding.size(), 2u);
    const core::MemOp huge{UINT64_MAX, 0, AccessType::Write};
    sim::encodeOps(&huge, 1, encoding);
    EXPECT_EQ(encoding.size(), 11u);

    // Both edges of every varint width, spread across a segment.
    std::vector<std::uint64_t> edge_gaps = {0};
    for (unsigned bits = 7; bits < 64; bits += 7) {
        edge_gaps.push_back((1ull << bits) - 1);
        edge_gaps.push_back(1ull << bits);
    }
    edge_gaps.push_back(UINT64_MAX);
    std::vector<core::MemOp> ops = sampleOps(sim::kSegmentOps, 5);
    for (std::size_t i = 0; i < ops.size(); i += 97) {
        ops[i].gap_insts = edge_gaps[(i / 97) % edge_gaps.size()];
    }

    // A buffer that held a longer encoding is replaced, not extended.
    std::string fresh;
    sim::encodeOps(ops.data(), ops.size(), fresh);
    std::string reused(fresh.size() + 100, 'x');
    sim::encodeOps(ops.data(), ops.size(), reused);
    EXPECT_EQ(reused, fresh);
    fresh.append(sim::kDecodeSlack, '\0');

    for (const std::size_t batch : {std::size_t{1}, std::size_t{61},
                                    sim::kSegmentOps}) {
        SCOPED_TRACE(batch);
        expectSameOps(decodeAll(fresh, ops.size(), batch), ops);
    }
}

TEST(SegmentCodec, EncodingMatchesPinnedDigest)
{
    // The round trip above cannot see a change that moves the encoder
    // and the decoder together; this pins the bytes the memo holds.
    // FNV-1a over three full segments and a partial one of a synthetic
    // stream, whose own op sequence
    // SyntheticStream.OpSequenceMatchesPinnedDigest (test_trace) pins.
    trace::SyntheticStream stream(trace::specProfile("h264ref"), {128, 64},
                                  1, 42 + 1 * 7919);
    std::vector<core::MemOp> ops(sim::kSegmentOps);
    std::string bytes;
    std::string encoding;
    for (const std::size_t count : {sim::kSegmentOps, sim::kSegmentOps,
                                    sim::kSegmentOps, std::size_t{917}}) {
        for (std::size_t got = 0; got < count;) {
            got += stream.nextBatch(ops.data() + got, count - got);
        }
        sim::encodeOps(ops.data(), count, encoding);
        bytes += encoding;
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    EXPECT_EQ(bytes.size(), 70382u);
    EXPECT_EQ(h, 0x2537d61f9ef180f4ull) << "got 0x" << std::hex << h;
}
