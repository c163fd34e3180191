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
 *  - TraceWriter -> TraceFileStream round-trips an op sequence
 *    bit-exactly through the on-disk format, including the
 *    atomic tmp + rename protocol;
 *  - registerTraceDir() turns a directory of `.cooptrace` sets into
 *    `trace:<name>` workload registrations, skipping incomplete or
 *    inconsistent sets;
 *  - record -> replay produces byte-identical store::formatResult
 *    lines over {2, 4, 8}-core groups x {coop, ucp} x two
 *    partitioners (the subsystem's reason to exist).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "sim/executor.hpp"
#include "store/result_store.hpp"
#include "trace/workloads.hpp"
#include "tracefile/record.hpp"
#include "tracefile/trace_format.hpp"
#include "tracefile/trace_stream.hpp"
#include "tracefile/trace_workloads.hpp"
#include "tracefile/trace_writer.hpp"

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

/** Writes @p ops as a complete trace file at @p path. */
void
writeTrace(const std::string &path, const TraceHeader &header,
           const std::vector<core::MemOp> &ops)
{
    TraceWriter writer(path, header);
    for (const core::MemOp &op : ops) {
        writer.append(op);
    }
    writer.finish();
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
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
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
// Writer -> stream round-trip

TEST(TraceWriter, StreamReadsBackExactlyWhatWasWritten)
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

    TraceFileStream stream(path);
    EXPECT_EQ(stream.header(), sampleHeader());

    // Drain through odd-sized batches so reads cross frame boundaries.
    std::vector<core::MemOp> got;
    core::MemOp buffer[61];
    while (got.size() < ops.size()) {
        const std::size_t max =
            std::min<std::size_t>(61, ops.size() - got.size());
        const std::size_t n = stream.nextBatch(buffer, max);
        ASSERT_GT(n, 0u);
        ASSERT_LE(n, max);
        got.insert(got.end(), buffer, buffer + n);
    }
    ASSERT_EQ(got.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        expectOpsEqual(got[i], ops[i], i);
    }
    EXPECT_EQ(stream.deliveredOps(), ops.size());
}

TEST(TraceWriter, AbandonedWriterLeavesNoFile)
{
    const std::string dir = scratchDir("abandon");
    const std::string path = dir + "/G2-3.0.cooptrace";
    {
        TraceWriter writer(path, sampleHeader());
        writer.append(sampleOps(10, 1)[0]);
        // No finish(): simulated crash.
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Malformed traces at replay time: descriptive fatals

TEST(TraceStream, MalformedFilesAreFatalWithReasons)
{
    const std::string dir = scratchDir("malformed");
    const std::string path = dir + "/G2-3.1.cooptrace";
    writeTrace(path, sampleHeader(), sampleOps(kFrameOps + 100, 9));
    const std::string good = slurp(path);

    setThrowOnFatal(true);

    // Bad magic: rejected at construction.
    std::string bad = good;
    bad[3] = 'X';
    spit(path, bad);
    EXPECT_THROW(TraceFileStream{path}, FatalError);

    // Wrong version: rejected at construction.
    bad = good;
    bad[8] = '\x09';
    spit(path, bad);
    EXPECT_THROW(TraceFileStream{path}, FatalError);

    // A flipped byte inside the second frame: every frame's CRC is
    // checked when the stream opens, so the corruption is fatal at
    // construction — before a single op reaches a simulation.
    bad = good;
    bad[bad.size() - 20] ^= 0x40;
    spit(path, bad);
    EXPECT_THROW(TraceFileStream{path}, FatalError);

    // Truncation mid-frame is equally fatal at construction.
    spit(path, good.substr(0, good.size() - 10));
    EXPECT_THROW(TraceFileStream{path}, FatalError);

    // Exhaustion: a clean file that simply ends is fatal once the
    // simulation asks for more than was recorded.
    spit(path, good);
    {
        TraceFileStream stream(path);
        core::MemOp buffer[64];
        std::size_t drained = 0;
        EXPECT_THROW(
            {
                for (;;) {
                    drained += stream.nextBatch(buffer, 64);
                }
            },
            FatalError);
        EXPECT_EQ(drained, kFrameOps + 100);
    }

    setThrowOnFatal(false);
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
    for (const sim::RunKey &generated_key : keys) {
        const sim::RunResult generated = sim::executeRun(generated_key);

        sim::RunKey replay_key = generated_key;
        replay_key.name = std::string(kTracePrefix) + generated_key.name;
        const sim::RunResult replayed = sim::executeRun(replay_key);

        EXPECT_EQ(store::formatResult(generated),
                  store::formatResult(replayed))
            << api::formatRunKey(generated_key);
    }
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
