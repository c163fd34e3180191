/**
 * @file
 * The `.cooptrace` binary trace format: one file per (workload, core)
 * holding that core's MemOp sequence, compressed and framed so replay
 * is cheap and corruption is loud.
 *
 * Layout:
 *
 *   [8-byte magic "cooptrc\n"] [u32 version]
 *   [u32 header payload bytes] [header payload] [u32 CRC-32(payload)]
 *   frame*                                        (until end of file)
 *
 * The header payload carries the recording identity — core index, core
 * count, run seed, stream geometry (LLC sets, block bytes), workload
 * name, app name, scale name — so replay can refuse a trace recorded
 * for a different simulation instead of silently diverging.
 *
 * Each frame is
 *
 *   [varint op count] [u32 payload bytes] [payload] [u32 CRC-32(payload)]
 *
 * and the payload encodes ops back to back as
 *
 *   [u8 flags: (delta_len << 2) | (is_write << 1) | llc_level]
 *   [varint gap_insts]
 *   [delta_len bytes: zigzag(addr - prev_addr), little-endian]
 *
 * with prev_addr starting at 0 for every frame, so frames decode
 * independently. Addresses move in small strides within an app's
 * footprint, so the zigzag delta usually fits 3-4 bytes where the raw
 * address needs 8; gap counts are geometric with a small mean, so the
 * varint usually fits 1-2 bytes. The CRC is the result store's
 * CRC-32 (store/result_store.hpp), covering exactly the payload: a
 * truncated or bit-flipped frame fails the check before any of its
 * ops are delivered.
 */

#ifndef COOPSIM_TRACEFILE_TRACE_FORMAT_HPP
#define COOPSIM_TRACEFILE_TRACE_FORMAT_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/op_stream.hpp"

namespace coopsim::tracefile
{

/** First 8 bytes of every trace file. */
inline constexpr char kTraceMagic[8] = {'c', 'o', 'o', 'p',
                                        't', 'r', 'c', '\n'};

/** Format version this tree writes and reads. */
inline constexpr std::uint32_t kTraceVersion = 1;

/** Trace files are `<workload>.<core>.cooptrace`. */
inline constexpr const char *kTraceExtension = ".cooptrace";

/** Ops per frame the writer emits (the last frame may be shorter). */
inline constexpr std::size_t kFrameOps = 4096;

// ---------------------------------------------------------------------------
// Codec primitives

/** Appends @p value as a LEB128 varint (7 bits per byte, high bit =
 *  continuation). */
void appendVarint(std::string &out, std::uint64_t value);

/**
 * Reads the varint at @p pos, advancing it. False when the buffer
 * ends mid-varint or the encoding exceeds 10 bytes.
 */
bool readVarint(const std::string &data, std::size_t &pos,
                std::uint64_t &value);

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
// Header

/** Recording identity carried by every trace file. */
struct TraceHeader
{
    /** Core index this stream fed (file suffix must agree). */
    std::uint32_t core = 0;
    /** Cores in the recorded system (= files in the trace set). */
    std::uint32_t num_cores = 0;
    /** The run seed (per-stream seeds derive as seed + core * 7919). */
    std::uint64_t seed = 0;
    /** Stream geometry the generator agreed on with the LLC. */
    std::uint32_t llc_sets = 0;
    std::uint32_t block_bytes = 0;
    /** Workload group name (without the "trace:" prefix). */
    std::string workload;
    /** The app profile this core ran. */
    std::string app;
    /** Scale-registry name the recording ran at. */
    std::string scale;

    bool operator==(const TraceHeader &) const = default;
};

/** Magic + version + length-prefixed payload + CRC trailer. */
std::string encodeHeader(const TraceHeader &header);

/**
 * Decodes the header at the start of @p data, leaving @p pos on the
 * first frame. False (with a reason in @p error) on bad magic, an
 * unsupported version, truncation, or a CRC mismatch.
 */
bool decodeHeader(const std::string &data, std::size_t &pos,
                  TraceHeader &out, std::string &error);

// ---------------------------------------------------------------------------
// Frames

/** Encodes @p count ops as one complete frame into @p out, replacing
 *  its contents (its capacity is reused, so a caller encoding frame
 *  after frame through one buffer allocates once). */
void encodeFrame(const core::MemOp *ops, std::size_t count,
                 std::string &out);

/** Outcome of decodeFrame(). */
enum class FrameStatus
{
    Ok,
    /** Clean end of file exactly at a frame boundary. */
    End,
    /** Truncated or CRC-mismatched frame; @p error says why. */
    Corrupt,
};

/**
 * Decodes the frame at @p pos into @p out (replacing its contents) and
 * advances @p pos past it. @p data must carry kDecodeSlack readable
 * bytes beyond the logical end (readTraceFile() pads; the slack lets
 * the delta decode issue one unconditional 8-byte load per op).
 */
FrameStatus decodeFrame(const std::string &data, std::size_t &pos,
                        std::vector<core::MemOp> &out,
                        std::string &error);

/**
 * Padding bytes the decoders require past the logical end: enough for
 * one worst-case op overrun (flags byte + 10-byte varint + 8-byte
 * wide load) so a crafted frame whose last op runs past its payload
 * is caught by a bounds check, never by an out-of-bounds read.
 */
inline constexpr std::size_t kDecodeSlack = 24;

/**
 * Reads the file at @p path into @p data with kDecodeSlack zero bytes
 * appended (the logical size is returned via @p size). False with a
 * reason in @p error when the file cannot be opened or read.
 */
bool readTraceFile(const std::string &path, std::string &data,
                   std::size_t &size, std::string &error);

/**
 * Validates the structure and CRC of every frame in
 * [@p pos, @p logical) in one sequential pass, accumulating the total
 * op count into @p ops. False (with the offending frame named in
 * @p error) on truncation or a checksum mismatch; the caller decides
 * whether that is fatal (replay) or merely a stale cache entry to
 * regenerate (warm start).
 */
bool validateFrames(const std::string &data, std::size_t pos,
                    std::size_t logical, std::uint64_t &ops,
                    std::string &error);

/**
 * Incremental decoder over a run of already-validated frames.
 *
 * The hot loop shared by TraceFileStream and the in-memory stream
 * memo: one flags byte, a mostly-one-byte varint gap, and a masked
 * unconditional 8-byte delta load per op. The buffer must carry
 * kDecodeSlack readable bytes past @p logical and its frames must
 * have passed validateFrames(); any inconsistency found here is a
 * (should-be-unreachable) fatal naming @p label.
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
