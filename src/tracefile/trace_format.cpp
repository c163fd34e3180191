#include "tracefile/trace_format.hpp"

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

    // The frame came from encodeFrame(); this only re-parses the two
    // length fields to arm the op cursor.
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

} // namespace coopsim::tracefile
