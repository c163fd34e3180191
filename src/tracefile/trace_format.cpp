#include "tracefile/trace_format.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "common/logging.hpp"
#include "store/result_store.hpp"

namespace coopsim::tracefile
{

namespace
{

inline void
storeU32(char *p, std::uint32_t value)
{
    p[0] = static_cast<char>(value & 0xff);
    p[1] = static_cast<char>((value >> 8) & 0xff);
    p[2] = static_cast<char>((value >> 16) & 0xff);
    p[3] = static_cast<char>((value >> 24) & 0xff);
}

inline void
appendU32(std::string &out, std::uint32_t value)
{
    char buf[4];
    storeU32(buf, value);
    out.append(buf, 4);
}

inline bool
readU32(const std::string &data, std::size_t &pos, std::uint32_t &value)
{
    if (pos + 4 > data.size())
        return false;
    const auto *p = reinterpret_cast<const unsigned char *>(data.data() + pos);
    value = static_cast<std::uint32_t>(p[0]) |
            (static_cast<std::uint32_t>(p[1]) << 8) |
            (static_cast<std::uint32_t>(p[2]) << 16) |
            (static_cast<std::uint32_t>(p[3]) << 24);
    pos += 4;
    return true;
}

inline void
appendString(std::string &out, const std::string &s)
{
    appendVarint(out, s.size());
    out.append(s);
}

inline bool
readString(const std::string &data, std::size_t &pos, std::string &out)
{
    std::uint64_t len = 0;
    if (!readVarint(data, pos, len))
        return false;
    if (len > data.size() - pos)
        return false;
    out.assign(data, pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
}

} // namespace

void
appendVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

bool
readVarint(const std::string &data, std::size_t &pos, std::uint64_t &value)
{
    std::uint64_t result = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (pos >= data.size())
            return false;
        const auto byte =
            static_cast<unsigned char>(data[pos++]);
        result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            value = result;
            return true;
        }
    }
    return false; // > 10 bytes: not a valid encoding of a u64
}

// ---------------------------------------------------------------------------
// Header

std::string
encodeHeader(const TraceHeader &header)
{
    std::string payload;
    appendVarint(payload, header.core);
    appendVarint(payload, header.num_cores);
    appendVarint(payload, header.seed);
    appendVarint(payload, header.llc_sets);
    appendVarint(payload, header.block_bytes);
    appendString(payload, header.workload);
    appendString(payload, header.app);
    appendString(payload, header.scale);

    std::string out;
    out.append(kTraceMagic, sizeof(kTraceMagic));
    appendU32(out, kTraceVersion);
    appendU32(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
    appendU32(out, store::crc32(payload.data(), payload.size()));
    return out;
}

bool
decodeHeader(const std::string &data, std::size_t &pos, TraceHeader &out,
             std::string &error)
{
    // As for decodeFrame(), the last kDecodeSlack bytes are padding,
    // not file content.
    const std::size_t end =
        data.size() > kDecodeSlack ? data.size() - kDecodeSlack : 0;
    if (end < sizeof(kTraceMagic) + 8) {
        error = "file too short for a trace header";
        return false;
    }
    if (std::memcmp(data.data(), kTraceMagic, sizeof(kTraceMagic)) != 0) {
        error = "bad magic (not a .cooptrace file)";
        return false;
    }
    pos = sizeof(kTraceMagic);
    std::uint32_t version = 0;
    readU32(data, pos, version);
    if (version != kTraceVersion) {
        error = "unsupported trace version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(kTraceVersion) + ")";
        return false;
    }
    std::uint32_t payload_bytes = 0;
    readU32(data, pos, payload_bytes);
    if (pos + payload_bytes + 4 > end) {
        error = "truncated header payload";
        return false;
    }
    const std::size_t payload_start = pos;
    const std::uint32_t want =
        store::crc32(data.data() + payload_start, payload_bytes);
    std::size_t crc_pos = payload_start + payload_bytes;
    std::uint32_t got = 0;
    readU32(data, crc_pos, got);
    if (want != got) {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "header CRC mismatch (stored %08x, computed %08x)",
                      got, want);
        error = buf;
        return false;
    }

    const std::string payload(data, payload_start, payload_bytes);
    std::size_t p = 0;
    std::uint64_t core = 0, num_cores = 0, seed = 0, sets = 0, block = 0;
    TraceHeader header;
    if (!readVarint(payload, p, core) || !readVarint(payload, p, num_cores) ||
        !readVarint(payload, p, seed) || !readVarint(payload, p, sets) ||
        !readVarint(payload, p, block) ||
        !readString(payload, p, header.workload) ||
        !readString(payload, p, header.app) ||
        !readString(payload, p, header.scale)) {
        error = "malformed header payload";
        return false;
    }
    header.core = static_cast<std::uint32_t>(core);
    header.num_cores = static_cast<std::uint32_t>(num_cores);
    header.seed = seed;
    header.llc_sets = static_cast<std::uint32_t>(sets);
    header.block_bytes = static_cast<std::uint32_t>(block);
    out = header;
    pos = crc_pos;
    return true;
}

// ---------------------------------------------------------------------------
// Frames

void
encodeFrame(const core::MemOp *ops, std::size_t count, std::string &out)
{
    // Encode through raw pointer writes into a worst-case-sized
    // buffer — one capacity check per frame instead of several per op
    // (this is the stream memo's cold-path inner loop). Worst case
    // per op: 1 flags byte + a 10-byte gap varint + an 8-byte delta;
    // the unconditional 8-byte delta store stays inside that budget.
    // The count's varint length is known up front, so the payload is
    // written in place and its length patched in afterwards.
    constexpr std::size_t kMaxOpBytes = 19;
    out.clear();
    appendVarint(out, count);
    const std::size_t length_pos = out.size();
    const std::size_t payload_pos = length_pos + 4;
    out.resize(payload_pos + count * kMaxOpBytes + 4);
    char *const base = out.data() + payload_pos;
    char *p = base;
    std::uint64_t prev_addr = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const core::MemOp &op = ops[i];
        const std::int64_t delta =
            static_cast<std::int64_t>(op.addr - prev_addr);
        const std::uint64_t z = zigzagEncode(delta);
        const std::size_t len = deltaLen(z);
        const unsigned flags = (static_cast<unsigned>(len) << 2) |
                               (op.type == AccessType::Write ? 2u : 0u) |
                               1u;
        *p++ = static_cast<char>(flags);
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
    const auto payload_bytes = static_cast<std::uint32_t>(p - base);
    storeU32(out.data() + length_pos, payload_bytes);
    storeU32(p, store::crc32(base, payload_bytes));
    out.resize(payload_pos + payload_bytes + 4);
}

FrameStatus
decodeFrame(const std::string &data, std::size_t &pos,
            std::vector<core::MemOp> &out, std::string &error)
{
    out.clear();
    const std::size_t logical_end = data.size() - kDecodeSlack;
    if (pos >= logical_end)
        return FrameStatus::End;

    std::uint64_t count = 0;
    std::size_t p = pos;
    if (!readVarint(data, p, count) || p > logical_end) {
        error = "truncated frame op count";
        return FrameStatus::Corrupt;
    }
    std::uint32_t payload_bytes = 0;
    if (p + 4 > logical_end || !readU32(data, p, payload_bytes)) {
        error = "truncated frame length field";
        return FrameStatus::Corrupt;
    }
    const std::size_t payload_start = p;
    const std::size_t payload_end = payload_start + payload_bytes;
    if (payload_end + 4 > logical_end) {
        error = "truncated frame payload (expected " +
                std::to_string(payload_bytes) + " bytes + CRC)";
        return FrameStatus::Corrupt;
    }
    const std::uint32_t want =
        store::crc32(data.data() + payload_start, payload_bytes);
    std::size_t crc_pos = payload_end;
    std::uint32_t got = 0;
    readU32(data, crc_pos, got);
    if (want != got) {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "frame CRC mismatch (stored %08x, computed %08x)", got,
                      want);
        error = buf;
        return FrameStatus::Corrupt;
    }

    // The count is outside the CRC: bound it by what the payload can
    // hold (every op takes at least a flags byte and a gap byte)
    // before it sizes anything.
    if (count > payload_bytes / 2) {
        error = "frame claims " + std::to_string(count) +
                " ops but its payload holds at most " +
                std::to_string(payload_bytes / 2);
        return FrameStatus::Corrupt;
    }
    out.resize(static_cast<std::size_t>(count));
    const char *base = data.data();
    std::size_t q = payload_start;
    std::uint64_t prev_addr = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (q >= payload_end) {
            error = "frame payload ended before op " + std::to_string(i) +
                    " of " + std::to_string(count);
            return FrameStatus::Corrupt;
        }
        const unsigned flags = static_cast<unsigned char>(base[q++]);
        const std::size_t len = flags >> 2;
        if (len > 8) {
            error = "invalid delta length in op flags";
            return FrameStatus::Corrupt;
        }
        if ((flags & 1u) == 0) {
            error = "op is not L1-filtered (flag bit 0 clear in op " +
                    std::to_string(i) + ")";
            return FrameStatus::Corrupt;
        }
        std::uint64_t gap = 0;
        if (!readVarint(data, q, gap) || q + len > payload_end) {
            error = "truncated op encoding inside frame payload";
            return FrameStatus::Corrupt;
        }
        // The kDecodeSlack file padding keeps this unconditional load
        // in bounds even for the last op of the last frame.
        std::uint64_t z;
        std::memcpy(&z, base + q, 8);
        z &= kLenMask[len];
        q += len;
        prev_addr += static_cast<std::uint64_t>(zigzagDecode(z));
        core::MemOp &op = out[i];
        op.gap_insts = gap;
        op.addr = prev_addr;
        op.type = (flags & 2u) ? AccessType::Write
                               : AccessType::Read;
    }
    if (q != payload_end) {
        error = "frame payload has " + std::to_string(payload_end - q) +
                " trailing bytes after the last op";
        return FrameStatus::Corrupt;
    }
    pos = crc_pos;
    return FrameStatus::Ok;
}

void
FrameDecoder::reset(const char *base, std::size_t begin, std::size_t logical,
                    const std::string *label)
{
    base_ = base;
    label_ = label;
    logical_ = logical;
    pos_ = begin;
    op_pos_ = 0;
    payload_end_ = 0;
    frame_left_ = 0;
    prev_addr_ = 0;
    frames_ = 0;
}

bool
FrameDecoder::enterFrame()
{
    if (pos_ >= logical_)
        return false;

    // The frame came from encodeFrame() or passed loadTraceFile();
    // this only re-parses the two length fields to arm the op cursor.
    std::uint64_t count = 0;
    std::size_t p = pos_;
    std::uint8_t byte;
    unsigned shift = 0;
    do {
        byte = static_cast<unsigned char>(base_[p++]);
        count |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        shift += 7;
    } while ((byte & 0x80) != 0 && shift < 70);
    const auto *lp = reinterpret_cast<const unsigned char *>(base_ + p);
    const std::uint32_t payload_bytes =
        static_cast<std::uint32_t>(lp[0]) |
        (static_cast<std::uint32_t>(lp[1]) << 8) |
        (static_cast<std::uint32_t>(lp[2]) << 16) |
        (static_cast<std::uint32_t>(lp[3]) << 24);
    p += 4;

    op_pos_ = p;
    payload_end_ = p + payload_bytes;
    frame_left_ = count;
    prev_addr_ = 0;
    pos_ = payload_end_ + 4;
    ++frames_;
    return true;
}

std::size_t
FrameDecoder::decode(core::MemOp *out, std::size_t max)
{
    const char *base = base_;
    std::size_t produced = 0;
    while (produced < max) {
        if (frame_left_ == 0) {
            if (op_pos_ != payload_end_)
                COOPSIM_FATAL(*label_, ": frame ", frames_ - 1,
                              " has trailing bytes after its last op");
            if (!enterFrame())
                break;
            continue;
        }
        // Hot decode loop: one flags byte, a mostly-one-byte varint
        // gap, and a masked unconditional 8-byte delta load per op.
        // The buffer's kDecodeSlack padding keeps the wide loads in
        // bounds at the tail.
        std::size_t q = op_pos_;
        const std::size_t payload_end = payload_end_;
        std::uint64_t prev_addr = prev_addr_;
        std::uint64_t left = frame_left_;
        while (produced < max && left > 0) {
            if (q >= payload_end)
                COOPSIM_FATAL(*label_, ": frame ", frames_ - 1,
                              " payload ended with ", left,
                              " ops still owed");
            const unsigned flags = static_cast<unsigned char>(base[q++]);
            const std::size_t len = flags >> 2;
            if (len > 8)
                COOPSIM_FATAL(*label_, ": invalid op flags in frame ",
                              frames_ - 1);
            std::uint64_t gap = static_cast<unsigned char>(base[q++]);
            if (gap >= 0x80) {
                gap &= 0x7f;
                unsigned shift = 7;
                std::uint8_t byte;
                do {
                    byte = static_cast<unsigned char>(base[q++]);
                    gap |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
                    shift += 7;
                } while ((byte & 0x80) != 0 && shift < 70);
            }
            std::uint64_t z;
            std::memcpy(&z, base + q, 8);
            z &= kLenMask[len];
            q += len;
            if (q > payload_end)
                COOPSIM_FATAL(*label_, ": op encoding overruns frame ",
                              frames_ - 1);
            prev_addr += static_cast<std::uint64_t>(zigzagDecode(z));
            core::MemOp &op = out[produced++];
            op.gap_insts = gap;
            op.addr = prev_addr;
            op.type = (flags & 2u) ? AccessType::Write
                                   : AccessType::Read;
            --left;
        }
        op_pos_ = q;
        prev_addr_ = prev_addr;
        frame_left_ = left;
    }
    return produced;
}

std::string
encodeTrace(const TraceHeader &header, core::OpStream &stream,
            std::uint64_t ops)
{
    std::string out = encodeHeader(header);
    std::vector<core::MemOp> buffer(kFrameOps);
    std::string frame;
    while (ops > 0) {
        const auto count = static_cast<std::size_t>(
            std::min<std::uint64_t>(kFrameOps, ops));
        for (std::size_t got = 0; got < count;) {
            got += stream.nextBatch(buffer.data() + got, count - got);
        }
        encodeFrame(buffer.data(), count, frame);
        out += frame;
        ops -= count;
    }
    return out;
}

namespace
{

/** Reads the file at @p path into @p data, sized exactly, with
 *  kDecodeSlack zero bytes appended. */
bool
readTraceFile(const std::string &path, std::string &data, std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open '" + path + "' for reading";
        return false;
    }
    long size = -1;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        size = std::ftell(f);
    }
    bool ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
    if (ok) {
        data.assign(static_cast<std::size_t>(size) + kDecodeSlack, '\0');
        ok = std::fread(data.data(), 1, static_cast<std::size_t>(size), f) ==
             static_cast<std::size_t>(size);
    }
    std::fclose(f);
    if (!ok) {
        error = "read error on '" + path + "'";
    }
    return ok;
}

/** Runs decodeFrame() over every frame of @p frames, summing their op
 *  counts into @p ops. */
bool
validateFrames(const std::string &frames, std::uint64_t &ops,
               std::string &error)
{
    std::vector<core::MemOp> scratch;
    ops = 0;
    std::size_t pos = 0;
    for (std::size_t frame = 0;; ++frame) {
        switch (decodeFrame(frames, pos, scratch, error)) {
        case FrameStatus::End:
            return true;
        case FrameStatus::Corrupt:
            error = "frame " + std::to_string(frame) + ": " + error;
            return false;
        case FrameStatus::Ok:
            ops += scratch.size();
            break;
        }
    }
}

} // namespace

bool
loadTraceFile(const std::string &path, TraceFile &out, std::string &error)
{
    std::string data;
    if (!readTraceFile(path, data, error)) {
        return false;
    }
    std::size_t pos = 0;
    if (!decodeHeader(data, pos, out.header, error)) {
        return false;
    }
    // Drop the header in place: what stays is the frames plus the
    // slack, in a buffer sized to the file.
    data.erase(0, pos);
    if (!validateFrames(data, out.ops, error)) {
        return false;
    }
    out.frames = std::move(data);
    return true;
}

} // namespace coopsim::tracefile
