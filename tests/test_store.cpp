/**
 * @file
 * Tests for the disk-backed result store (src/store/):
 *
 *  - the RunResult line encoding round-trips every field bit-exactly
 *    (including non-representable decimals) and strictly rejects
 *    corrupt, reordered, truncated and trailing content;
 *  - the slice-by-8 CRC-32 equals the bytewise table loop on random
 *    buffers of every alignment and length up to 64 KiB;
 *  - ResultStore save -> load identity through the atomic file
 *    format, last-writer-wins merge semantics, corrupt-line skipping
 *    on load, and lexical-order directory folding;
 *  - shardKeys(): the round-robin shards partition the expanded
 *    sweep (disjoint, union == full key list);
 *  - the executor store hook: stored keys are served without
 *    starting the pool or running a simulation (run-count stats),
 *    and completed simulations are recorded back into the store.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include <coopsim/experiment.hpp>

#include "common/rng.hpp"

using namespace coopsim;
using namespace coopsim::store;

namespace fs = std::filesystem;

namespace
{

/** A RunResult exercising every field, including doubles with no
 *  exact decimal representation. */
sim::RunResult
sampleResult(double salt = 0.0)
{
    sim::RunResult r;
    sim::AppResult a;
    a.name = "h264ref";
    a.ipc = 1.0 / 3.0 + salt;
    a.insts = 123456789ull;
    a.cycles = 987654321ull;
    a.llc_accesses = 4242;
    a.llc_hits = 4000;
    a.llc_misses = 242;
    a.mpki = 0.1;
    sim::AppResult b;
    b.name = "mcf";
    b.ipc = 0.7071067811865476;
    b.insts = 1;
    b.cycles = 18446744073709551615ull;
    b.llc_accesses = 0;
    b.llc_hits = 0;
    b.llc_misses = 0;
    b.mpki = 0.0;
    r.apps = {a, b};
    r.total_cycles = 1312996;
    r.dynamic_energy_nj = 752.9368000000804;
    r.data_energy_nj = 4922.343000000199;
    r.static_energy_nj = 1.0 / 7.0;
    r.avg_ways_probed = 3.4786465693201443;
    r.donor_hits = 108;
    r.donor_misses = 16;
    r.recipient_hits = 3;
    r.recipient_misses = 5;
    r.avg_transfer_cycles = 17.25;
    r.completed_transfers = 9;
    r.flushed_lines = 131;
    r.repartitions = 2;
    r.epochs = 17;
    r.flush_series = {62, 32, 15, 8, 8};
    r.flush_series_bin = 10000;
    r.dram_reads = 555;
    r.dram_writebacks = 44;
    r.dram_flushes = 3;
    return r;
}

void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    // Field-by-field bit equality; the encoding comparison below is
    // the cheap proxy, this is the authoritative check.
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].name, b.apps[i].name);
        EXPECT_EQ(a.apps[i].ipc, b.apps[i].ipc);
        EXPECT_EQ(a.apps[i].insts, b.apps[i].insts);
        EXPECT_EQ(a.apps[i].cycles, b.apps[i].cycles);
        EXPECT_EQ(a.apps[i].llc_accesses, b.apps[i].llc_accesses);
        EXPECT_EQ(a.apps[i].llc_hits, b.apps[i].llc_hits);
        EXPECT_EQ(a.apps[i].llc_misses, b.apps[i].llc_misses);
        EXPECT_EQ(a.apps[i].mpki, b.apps[i].mpki);
    }
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.dynamic_energy_nj, b.dynamic_energy_nj);
    EXPECT_EQ(a.data_energy_nj, b.data_energy_nj);
    EXPECT_EQ(a.static_energy_nj, b.static_energy_nj);
    EXPECT_EQ(a.avg_ways_probed, b.avg_ways_probed);
    EXPECT_EQ(a.donor_hits, b.donor_hits);
    EXPECT_EQ(a.donor_misses, b.donor_misses);
    EXPECT_EQ(a.recipient_hits, b.recipient_hits);
    EXPECT_EQ(a.recipient_misses, b.recipient_misses);
    EXPECT_EQ(a.avg_transfer_cycles, b.avg_transfer_cycles);
    EXPECT_EQ(a.completed_transfers, b.completed_transfers);
    EXPECT_EQ(a.flushed_lines, b.flushed_lines);
    EXPECT_EQ(a.repartitions, b.repartitions);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.flush_series, b.flush_series);
    EXPECT_EQ(a.flush_series_bin, b.flush_series_bin);
    EXPECT_EQ(a.dram_reads, b.dram_reads);
    EXPECT_EQ(a.dram_writebacks, b.dram_writebacks);
    EXPECT_EQ(a.dram_flushes, b.dram_flushes);
}

/** A distinct RunKey per @p n. */
sim::RunKey
sampleKey(unsigned n)
{
    sim::RunKey key;
    key.kind = sim::RunKey::Kind::Group;
    key.scheme = "coop";
    key.name = "G2-" + std::to_string(1 + n % 14);
    key.num_cores = 2;
    key.scale = sim::RunScale::Test;
    key.threshold = 0.05;
    key.seed = 42 + n;
    return key;
}

/** Fresh scratch directory under the gtest temp dir. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / ("coopsim_store_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

} // namespace

// ---------------------------------------------------------------------------
// Line encoding

TEST(StoreEncoding, ResultRoundTripsEveryFieldBitExactly)
{
    const sim::RunResult original = sampleResult();
    const std::string text = formatResult(original);

    sim::RunResult parsed;
    ASSERT_TRUE(tryParseResult(text, parsed));
    expectIdentical(original, parsed);
    EXPECT_EQ(formatResult(parsed), text);

    // Degenerate shapes round-trip too: no apps, empty flush series.
    const sim::RunResult empty;
    ASSERT_TRUE(tryParseResult(formatResult(empty), parsed));
    expectIdentical(empty, parsed);
}

TEST(StoreEncoding, StoreLineRoundTripsKeyAndResult)
{
    const sim::RunKey key = sampleKey(3);
    const sim::RunResult result = sampleResult();
    const std::string line = formatStoreLine(key, result);

    sim::RunKey parsed_key;
    sim::RunResult parsed_result;
    ASSERT_TRUE(tryParseStoreLine(line, parsed_key, parsed_result));
    EXPECT_EQ(parsed_key, key);
    expectIdentical(result, parsed_result);
}

TEST(StoreEncoding, RejectsCorruptAndTruncatedText)
{
    const std::string good = formatResult(sampleResult());
    sim::RunResult out;

    // Truncation anywhere must fail, never parse as a plausible
    // partial result.
    for (const std::size_t len :
         {std::size_t{0}, good.size() / 4, good.size() / 2,
          good.size() - 1}) {
        EXPECT_FALSE(tryParseResult(good.substr(0, len), out))
            << "truncated at " << len;
    }
    // Trailing garbage, bad numbers, reordered/unknown fields.
    EXPECT_FALSE(tryParseResult(good + " extra=1", out));
    EXPECT_FALSE(tryParseResult("cycles=banana" + good.substr(12), out));
    EXPECT_FALSE(tryParseResult("bogus=1 " + good, out));
    // Numbers strtoull/strtod would silently mangle: a negative count
    // (wraps to 2^64-1) and an overflowing double (becomes inf) must
    // be rejected, not loaded as plausible results.
    EXPECT_FALSE(
        tryParseResult("cycles=-1" + good.substr(good.find(' ')), out));
    const std::size_t dyn = good.find("dyn_nj=");
    const std::size_t dyn_end = good.find(' ', dyn);
    EXPECT_FALSE(tryParseResult(good.substr(0, dyn) + "dyn_nj=1e999" +
                                    good.substr(dyn_end),
                                out));

    setThrowOnFatal(true);
    EXPECT_THROW(parseResult("not a result"), FatalError);
    setThrowOnFatal(false);

    // A store line without a tab or with a bad key fails.
    sim::RunKey key;
    EXPECT_FALSE(tryParseStoreLine(good, key, out));
    EXPECT_FALSE(
        tryParseStoreLine("group scheme=warp\t" + good, key, out));
}

TEST(StoreEncoding, TryParseRunKeyRejectsWithoutFatal)
{
    sim::RunKey key;
    EXPECT_FALSE(api::tryParseRunKey("run scheme=coop", key));
    EXPECT_FALSE(api::tryParseRunKey("group scheme=warp", key));
    EXPECT_FALSE(api::tryParseRunKey("group bogus", key));
    EXPECT_FALSE(api::tryParseRunKey("group color=red", key));
    EXPECT_FALSE(api::tryParseRunKey("group seed=banana", key));
    ASSERT_TRUE(
        api::tryParseRunKey(api::formatRunKey(sampleKey(1)), key));
    EXPECT_EQ(key, sampleKey(1));
}

// ---------------------------------------------------------------------------
// ResultStore

TEST(ResultStore, PutFindAndMergeAreLastWriterWins)
{
    ResultStore a;
    ResultStore b;
    const sim::RunKey key = sampleKey(0);
    a.put(key, sampleResult(0.0));
    a.put(sampleKey(1), sampleResult(1.0));
    b.put(key, sampleResult(9.0)); // same key, different result

    EXPECT_EQ(a.size(), 2u);
    ASSERT_TRUE(a.find(key).has_value());
    EXPECT_EQ(a.find(key)->apps[0].ipc, sampleResult(0.0).apps[0].ipc);
    EXPECT_FALSE(a.find(sampleKey(7)).has_value());

    // Replacement in place...
    a.put(key, sampleResult(5.0));
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(a.find(key)->apps[0].ipc, sampleResult(5.0).apps[0].ipc);

    // ...and on merge the incoming store wins shared keys.
    a.merge(b);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(a.find(key)->apps[0].ipc, sampleResult(9.0).apps[0].ipc);
}

TEST(ResultStore, SaveLoadRoundTripsAtomically)
{
    const std::string dir = scratchDir("roundtrip");
    const std::string path = dir + "/a" + kStoreExtension;

    ResultStore original;
    for (unsigned n = 0; n < 5; ++n) {
        original.put(sampleKey(n), sampleResult(n));
    }
    original.save(path);
    EXPECT_FALSE(fs::exists(path + ".tmp")); // temp file renamed away

    ResultStore loaded;
    EXPECT_EQ(loaded.loadFile(path), 5u);
    EXPECT_EQ(loaded.size(), original.size());
    for (unsigned n = 0; n < 5; ++n) {
        const auto hit = loaded.find(sampleKey(n));
        ASSERT_TRUE(hit.has_value());
        expectIdentical(*original.find(sampleKey(n)), *hit);
    }

    // save() creates missing parent directories.
    const std::string nested =
        dir + "/deep/nested/b" + kStoreExtension;
    original.save(nested);
    ResultStore reloaded;
    EXPECT_EQ(reloaded.loadFile(nested), 5u);
}

TEST(ResultStore, LoadSkipsCorruptAndTruncatedLines)
{
    const std::string dir = scratchDir("corrupt");
    const std::string path = dir + "/bad" + kStoreExtension;

    const std::string good0 =
        formatStoreLine(sampleKey(0), sampleResult(0));
    const std::string good1 =
        formatStoreLine(sampleKey(1), sampleResult(1));
    {
        std::ofstream out(path);
        out << kStoreMagic << "\n";
        out << "# comments and blank lines are fine\n\n";
        out << good0 << "\n";
        out << "group scheme=warp name=G2-1\tcycles=1\n"; // bad key
        out << good1.substr(0, good1.size() / 2) << "\n"; // truncated
        out << "complete garbage\n";
        out << good1 << "\n";
    }

    setQuiet(true);
    ResultStore loaded;
    EXPECT_EQ(loaded.loadFile(path), 2u);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(loaded.find(sampleKey(0)).has_value());
    EXPECT_TRUE(loaded.find(sampleKey(1)).has_value());

    // A file without the magic header loads nothing.
    const std::string bogus = dir + "/not-a-store" + kStoreExtension;
    {
        std::ofstream out(bogus);
        out << good0 << "\n";
    }
    ResultStore none;
    EXPECT_EQ(none.loadFile(bogus), 0u);
    EXPECT_EQ(none.loadFile(dir + "/absent.coopstore"), 0u);
    setQuiet(false);
}

// ---------------------------------------------------------------------------
// CRC hardening and the corruption matrix

TEST(StoreCrc, ChecksumMatchesKnownVectorsAndSuffixRoundTrips)
{
    // CRC-32/IEEE known-answer vectors (zlib's crc32()).
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);

    const std::string body = "group scheme=coop\tcycles=1";
    const std::string line = withCrcSuffix(body);
    EXPECT_EQ(line.substr(0, body.size()), body);

    std::string split;
    EXPECT_EQ(splitCrcSuffix(line, split), LineCheck::Ok);
    EXPECT_EQ(split, body);
    // No trailer -> legacy, whole line is the body.
    EXPECT_EQ(splitCrcSuffix(body, split), LineCheck::Legacy);
    EXPECT_EQ(split, body);
    // Any flipped digit -> mismatch.
    std::string bad = line;
    bad.back() = bad.back() == '0' ? '1' : '0';
    EXPECT_EQ(splitCrcSuffix(bad, split), LineCheck::Mismatch);
}

namespace
{

/** The bytewise table-driven CRC-32 the slice-by-8 loop replaced. */
std::uint32_t
bytewiseCrc32(const unsigned char *data, std::size_t len)
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int bit = 0; bit < 8; ++bit) {
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            }
            t[n] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
    }
    return crc ^ 0xffffffffu;
}

} // namespace

TEST(StoreCrc, SliceBy8MatchesBytewiseReferenceAtEveryAlignment)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);

    constexpr std::size_t kMaxLen = 65536;
    constexpr std::size_t kAlignments = 8;
    Rng rng(0xc3c32);
    std::vector<unsigned char> buffer(kMaxLen + kAlignments);
    for (unsigned char &b : buffer) {
        b = static_cast<unsigned char>(rng.next());
    }
    // Every length up to a few words covers each tail length after the
    // 8-byte loop; random lengths up to 64 KiB cover long runs of it.
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= 40; ++len) {
        lengths.push_back(len);
    }
    for (int i = 0; i < 40; ++i) {
        lengths.push_back(rng.nextBelow(kMaxLen + 1));
    }
    lengths.push_back(kMaxLen);
    for (const std::size_t len : lengths) {
        for (std::size_t align = 0; align < kAlignments; ++align) {
            const unsigned char *data = buffer.data() + align;
            ASSERT_EQ(crc32(reinterpret_cast<const char *>(data), len),
                      bytewiseCrc32(data, len))
                << "len=" << len << " align=" << align;
        }
    }
}

TEST(StoreCrc, SaveEmitsCrcLinesAndRoundTripsByteIdentically)
{
    const std::string dir = scratchDir("crc");
    const std::string path = dir + "/a" + kStoreExtension;

    ResultStore original;
    for (unsigned n = 0; n < 4; ++n) {
        original.put(sampleKey(n), sampleResult(n));
    }
    original.save(path);

    // Every entry line carries a valid CRC trailer.
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, kStoreMagic);
    std::size_t entries = 0;
    std::string body;
    while (std::getline(in, line)) {
        EXPECT_EQ(splitCrcSuffix(line, body), LineCheck::Ok) << line;
        ++entries;
    }
    EXPECT_EQ(entries, 4u);

    // save -> load -> save is byte-identical (CRC suffixes included).
    ResultStore loaded;
    EXPECT_EQ(loaded.loadFile(path), 4u);
    const ResultStore::Stats stats = loaded.stats();
    EXPECT_EQ(stats.lines_loaded, 4u);
    EXPECT_EQ(stats.lines_skipped, 0u);
    EXPECT_EQ(stats.lines_legacy, 0u);
    const std::string copy = dir + "/b" + kStoreExtension;
    loaded.save(copy);
    std::ifstream f1(path), f2(copy);
    std::stringstream s1, s2;
    s1 << f1.rdbuf();
    s2 << f2.rdbuf();
    EXPECT_EQ(s1.str(), s2.str());
}

TEST(StoreCrc, CorruptionMatrixSkipsExactlyTheDamagedLines)
{
    setQuiet(true);
    const std::string dir = scratchDir("matrix");
    const std::string path = dir + "/m" + kStoreExtension;

    // Five good CRC'd lines, then damage three of them in place:
    // flip a CRC digit of line 1, interleave garbage after line 2,
    // truncate the last line mid-body.
    std::vector<std::string> lines;
    ResultStore source;
    for (unsigned n = 0; n < 5; ++n) {
        source.put(sampleKey(n), sampleResult(n));
        lines.push_back(withCrcSuffix(
            formatStoreLine(sampleKey(n), sampleResult(n))));
    }
    lines[1].back() = lines[1].back() == 'a' ? 'b' : 'a';
    lines.insert(lines.begin() + 3, "interleaved garbage");
    lines.back() = lines.back().substr(0, lines.back().size() / 2);
    {
        std::ofstream out(path);
        out << kStoreMagic << "\n";
        for (const std::string &line : lines) {
            out << line << "\n";
        }
    }

    ResultStore loaded;
    // Lines 0, 2, 3 survive; the flipped-CRC, garbage and truncated
    // lines are skipped with exact counts.
    EXPECT_EQ(loaded.loadFile(path), 3u);
    const ResultStore::Stats stats = loaded.stats();
    EXPECT_EQ(stats.lines_loaded, 3u);
    EXPECT_EQ(stats.lines_skipped, 3u);
    EXPECT_EQ(stats.lines_legacy, 0u);

    // The surviving entries equal the uncorrupted subset bit-exactly.
    for (const unsigned n : {0u, 2u, 3u}) {
        const auto hit = loaded.find(sampleKey(n));
        ASSERT_TRUE(hit.has_value()) << n;
        expectIdentical(sampleResult(n), *hit);
    }
    EXPECT_FALSE(loaded.find(sampleKey(1)).has_value());
    EXPECT_FALSE(loaded.find(sampleKey(4)).has_value());
    setQuiet(false);
}

TEST(StoreCrc, LegacyLinesWithoutCrcLoadWithWarningCount)
{
    setQuiet(true);
    const std::string dir = scratchDir("legacy");
    const std::string path = dir + "/old" + kStoreExtension;
    {
        // A pre-CRC store: plain lines, no trailers.
        std::ofstream out(path);
        out << kStoreMagic << "\n";
        out << formatStoreLine(sampleKey(0), sampleResult(0)) << "\n";
        out << formatStoreLine(sampleKey(1), sampleResult(1)) << "\n";
    }
    ResultStore loaded;
    EXPECT_EQ(loaded.loadFile(path), 2u);
    EXPECT_EQ(loaded.stats().lines_legacy, 2u);
    EXPECT_EQ(loaded.stats().lines_skipped, 0u);
    expectIdentical(sampleResult(0), *loaded.find(sampleKey(0)));

    // Saving rewrites the store in the CRC'd format.
    const std::string upgraded = dir + "/new" + kStoreExtension;
    loaded.save(upgraded);
    ResultStore reloaded;
    EXPECT_EQ(reloaded.loadFile(upgraded), 2u);
    EXPECT_EQ(reloaded.stats().lines_legacy, 0u);
    setQuiet(false);
}

TEST(StoreCrc, LoadDirQuarantinesZeroValidLineFiles)
{
    setQuiet(true);
    const std::string dir = scratchDir("quarantine");

    // One healthy shard file...
    ResultStore good;
    good.put(sampleKey(0), sampleResult(0));
    good.save(dir + "/shard-0of2" + kStoreExtension);
    // ...one file whose every line is corrupt...
    const std::string poisoned = dir + "/shard-1of2" + kStoreExtension;
    {
        std::ofstream out(poisoned);
        out << kStoreMagic << "\n";
        out << "garbage line one\n";
        out << "garbage line two\n";
    }
    // ...and one that is not a store at all.
    const std::string bogus = dir + "/zz-bogus" + kStoreExtension;
    {
        std::ofstream out(bogus);
        out << "not a coopsim store\n";
    }

    ResultStore merged;
    EXPECT_EQ(merged.loadDir(dir), 1u);
    EXPECT_EQ(merged.stats().files_quarantined, 2u);
    EXPECT_TRUE(merged.find(sampleKey(0)).has_value());

    // Quarantined files are renamed out of the store glob, so a
    // second fold no longer sees them.
    EXPECT_FALSE(fs::exists(poisoned));
    EXPECT_TRUE(fs::exists(poisoned + ".quarantined"));
    EXPECT_TRUE(fs::exists(bogus + ".quarantined"));
    ResultStore again;
    EXPECT_EQ(again.loadDir(dir), 1u);
    EXPECT_EQ(again.stats().files_quarantined, 0u);

    // An empty (header-only) store file is fine: zero candidates is
    // not corruption.
    ResultStore empty;
    empty.save(dir + "/shard-2of3" + kStoreExtension);
    ResultStore third;
    EXPECT_EQ(third.loadDir(dir), 1u);
    EXPECT_EQ(third.stats().files_quarantined, 0u);
    setQuiet(false);
}

TEST(StoreCrc, TrySaveReportsFailureAndPreservesResults)
{
    const std::string dir = scratchDir("trysave");
    ResultStore results;
    results.put(sampleKey(0), sampleResult(0));

    // Happy path returns true and leaves no temp file.
    std::string error;
    const std::string path = dir + "/ok" + kStoreExtension;
    EXPECT_TRUE(results.trySave(path, error)) << error;
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    // A target whose parent cannot be created fails with a
    // description instead of dying (a regular file blocks the
    // directory path).
    const std::string blocked =
        dir + "/ok" + kStoreExtension + "/nested" + kStoreExtension;
    EXPECT_FALSE(results.trySave(blocked, error));
    EXPECT_FALSE(error.empty());

    // save() on the same target is the fatal variant.
    setThrowOnFatal(true);
    EXPECT_THROW(results.save(blocked), FatalError);
    setThrowOnFatal(false);
}

TEST(ResultStore, LoadDirFoldsFilesInLexicalOrder)
{
    const std::string dir = scratchDir("dirload");
    const sim::RunKey shared = sampleKey(0);

    ResultStore first;
    first.put(shared, sampleResult(1.0));
    first.put(sampleKey(1), sampleResult(0.0));
    first.save(dir + "/shard-0of2" + kStoreExtension);

    ResultStore second;
    second.put(shared, sampleResult(2.0)); // later file wins
    second.save(dir + "/shard-1of2" + kStoreExtension);

    ResultStore merged;
    EXPECT_EQ(merged.loadDir(dir), 3u);
    EXPECT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.find(shared)->apps[0].ipc,
              sampleResult(2.0).apps[0].ipc);

    // A missing directory folds nothing.
    ResultStore empty;
    EXPECT_EQ(empty.loadDir(dir + "/nowhere"), 0u);
    EXPECT_EQ(shardFileName(0, 2), "shard-0of2.coopstore");
}

// ---------------------------------------------------------------------------
// Sharding

TEST(Shard, UnionOfShardsEqualsFullSweepExactly)
{
    api::ExperimentSpec spec;
    spec.layout = "none";
    spec.schemes = {"fairshare", "coop"};
    spec.groups = {"G2-10", "G2-11", "G4-3"};
    spec.thresholds = {0.0, 0.05};
    spec.seeds = {1, 2};
    spec.scale = "test";
    const std::vector<sim::RunKey> keys = api::expandSpec(spec);
    ASSERT_FALSE(keys.empty());

    for (const unsigned count : {1u, 2u, 3u, 7u}) {
        std::multiset<std::string> expected;
        for (const sim::RunKey &key : keys) {
            expected.insert(api::formatRunKey(key));
        }
        std::multiset<std::string> covered;
        std::size_t total = 0;
        for (unsigned index = 0; index < count; ++index) {
            const std::vector<sim::RunKey> slice =
                api::shardKeys(keys, index, count);
            total += slice.size();
            for (const sim::RunKey &key : slice) {
                covered.insert(api::formatRunKey(key));
            }
        }
        // Disjoint (total matches) and complete (multisets match).
        EXPECT_EQ(total, keys.size()) << count << " shards";
        EXPECT_EQ(covered, expected) << count << " shards";
    }

    EXPECT_EQ(api::shardKeys(keys, 0, 1), keys);
    setThrowOnFatal(true);
    EXPECT_THROW(api::shardKeys(keys, 2, 2), FatalError);
    EXPECT_THROW(api::shardKeys(keys, 0, 0), FatalError);
    setThrowOnFatal(false);
}

// ---------------------------------------------------------------------------
// Executor store hook

TEST(ExecutorStore, StoredKeysAreServedWithoutStartingThePool)
{
    api::ExperimentSpec spec;
    spec.schemes = {"fairshare"};
    spec.scale = "test";
    const sim::RunKey key =
        api::groupRunKey(spec, trace::groupByName("G2-10"));

    // Precompute the result serially and plant it in a store.
    const sim::RunResult direct = sim::executeRun(key);
    auto planted = std::make_shared<ResultStore>();
    planted->put(key, direct);

    sim::RunExecutor executor(2);
    EXPECT_EQ(executor.threads(), 2u);
    executor.attachStore(planted);

    // Store hit: no pool thread spawns, no simulation runs.
    executor.prefetch({key});
    EXPECT_EQ(executor.activeWorkers(), 0u);
    expectIdentical(direct, executor.run(key));
    EXPECT_EQ(executor.activeWorkers(), 0u);
    EXPECT_EQ(executor.stats().simulations, 0u);
    EXPECT_EQ(executor.stats().store_hits, 1u);

    // A key the store lacks still simulates (lazily starting the
    // pool) and is recorded back into the store.
    sim::RunKey missing = key;
    missing.seed = 7;
    const sim::RunResult &fresh = executor.run(missing);
    EXPECT_FALSE(fresh.apps.empty());
    EXPECT_EQ(executor.activeWorkers(), 2u);
    EXPECT_EQ(executor.stats().simulations, 1u);
    const auto recorded = planted->find(missing);
    ASSERT_TRUE(recorded.has_value());
    expectIdentical(fresh, *recorded);
}

TEST(ExecutorStore, WarmStoreReplaysAWholeSweepWithZeroSimulations)
{
    api::ExperimentSpec spec;
    spec.layout = "none";
    spec.with_solo = false;
    spec.schemes = {"fairshare", "coop"};
    spec.groups = {"G2-10"};
    spec.scale = "test";
    const std::vector<sim::RunKey> keys = api::expandSpec(spec);

    // First executor computes the sweep into an attached store.
    auto computed = std::make_shared<ResultStore>();
    sim::RunExecutor cold(2);
    cold.attachStore(computed);
    cold.prefetch(keys);
    for (const sim::RunKey &key : keys) {
        cold.run(key);
    }
    EXPECT_EQ(cold.stats().simulations, keys.size());
    EXPECT_EQ(computed->size(), keys.size());

    // Round-trip the store through disk, then replay on a fresh
    // executor: identical results, zero simulations, no pool.
    const std::string dir = scratchDir("replay");
    computed->save(dir + "/" + kMergedFileName);
    auto reloaded = std::make_shared<ResultStore>();
    EXPECT_EQ(reloaded->loadDir(dir), keys.size());

    sim::RunExecutor warm(2);
    warm.attachStore(reloaded);
    warm.prefetch(keys);
    for (const sim::RunKey &key : keys) {
        expectIdentical(cold.run(key), warm.run(key));
    }
    EXPECT_EQ(warm.stats().simulations, 0u);
    EXPECT_EQ(warm.stats().store_hits, keys.size());
    EXPECT_EQ(warm.activeWorkers(), 0u);
}
