/**
 * @file
 * The op-stream frame codec the stream memo (sim/stream_cache.hpp) is
 * built on: a stream is held in memory as a run of frames, each
 * compressed and checksummed, and replayed through FrameDecoder.
 *
 * Each frame is
 *
 *   [varint op count] [u32 payload bytes] [payload] [u32 CRC-32(payload)]
 *
 * and the payload encodes ops back to back as
 *
 *   [u8 flags: (delta_len << 2) | (is_write << 1) | 1]
 *   [varint gap_insts]
 *   [delta_len bytes: zigzag(addr - prev_addr), little-endian]
 *
 * with prev_addr starting at 0 for every frame, so frames decode
 * independently. Flag bit 0 marks an L1-filtered op; every op stream
 * is L1-filtered (core/op_stream.hpp), so the encoder always sets it.
 * Addresses move in small strides within an app's footprint, so the
 * zigzag delta usually fits 3-4 bytes where the raw address needs 8;
 * gap counts are geometric with a small mean, so the varint usually
 * fits 1-2 bytes. The CRC is the result store's CRC-32
 * (store/result_store.hpp), covering exactly the payload; the decoder
 * skips it, since frames never leave the process that encoded them.
 */

#ifndef COOPSIM_TRACEFILE_TRACE_FORMAT_HPP
#define COOPSIM_TRACEFILE_TRACE_FORMAT_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/op_stream.hpp"

namespace coopsim::tracefile
{

/** Ops per frame the memo encodes. */
inline constexpr std::size_t kFrameOps = 4096;

// ---------------------------------------------------------------------------
// Codec primitives

/** Appends @p value as a LEB128 varint (7 bits per byte, high bit =
 *  continuation). */
void appendVarint(std::string &out, std::uint64_t value);

/** Bytes needed for the little-endian encoding of @p z (0 for zero). */
inline std::size_t
deltaLen(std::uint64_t z)
{
    if (z == 0)
        return 0;
    return (64u - static_cast<unsigned>(std::countl_zero(z)) + 7u) / 8u;
}

/** Low `8*len` bits set, for masking an unconditional 8-byte load. */
inline constexpr std::uint64_t kLenMask[9] = {
    0x0000000000000000ull, 0x00000000000000ffull, 0x000000000000ffffull,
    0x0000000000ffffffull, 0x00000000ffffffffull, 0x000000ffffffffffull,
    0x0000ffffffffffffull, 0x00ffffffffffffffull, 0xffffffffffffffffull,
};

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

// ---------------------------------------------------------------------------
// Frames

/** Encodes @p count ops as one complete frame into @p out, replacing
 *  its contents (its capacity is reused, so a caller encoding frame
 *  after frame through one buffer allocates once). */
void encodeFrame(const core::MemOp *ops, std::size_t count,
                 std::string &out);

/**
 * Padding bytes the decoder requires past the logical end: enough for
 * one worst-case op overrun (flags byte + 10-byte varint + 8-byte
 * wide load), so the unconditional 8-byte delta load of the last op
 * stays in bounds.
 */
inline constexpr std::size_t kDecodeSlack = 24;

/**
 * Incremental decoder over a run of frames from encodeFrame().
 *
 * The stream memo's replay loop: one flags byte, a mostly-one-byte
 * varint gap, and a masked unconditional 8-byte delta load per op.
 * The buffer must carry kDecodeSlack readable bytes past @p logical;
 * any inconsistency found here is a (should-be-unreachable) fatal
 * naming @p label.
 */
class FrameDecoder
{
  public:
    /**
     * Arms the decoder on the frame at @p begin. @p label must outlive
     * the decoder; it names the buffer in corruption fatals.
     */
    void reset(const char *base, std::size_t begin, std::size_t logical,
               const std::string *label);

    /**
     * Decodes up to @p max ops into @p out, crossing frame boundaries
     * as needed. Returns 0 only at the clean end of the buffer.
     */
    std::size_t decode(core::MemOp *out, std::size_t max);

  private:
    /** Arms the op cursor on the frame at pos_; false at clean end. */
    bool enterFrame();

    const char *base_ = nullptr;
    const std::string *label_ = nullptr;
    std::size_t logical_ = 0;
    /** Byte offset of the next frame header. */
    std::size_t pos_ = 0;
    /** Op cursor inside the current frame's payload. */
    std::size_t op_pos_ = 0;
    std::size_t payload_end_ = 0;
    std::uint64_t frame_left_ = 0;
    std::uint64_t prev_addr_ = 0;
    std::uint64_t frames_ = 0;
};

} // namespace coopsim::tracefile

#endif // COOPSIM_TRACEFILE_TRACE_FORMAT_HPP
