/**
 * @file
 * Tests for the synthetic workload generators and benchmark profiles.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"

using namespace coopsim;
using namespace coopsim::trace;

namespace
{

StreamGeometry
smallGeometry()
{
    return StreamGeometry{128, 64};
}

} // namespace

// ---------------------------------------------------------------------------
// Class CDF construction

TEST(ClassCdf, RemainderGoesToRankZero)
{
    RankPmf pmf;
    pmf.miss_prob = 0.2;
    pmf.rank[3] = 0.1;
    const auto cdf = buildClassCdf(pmf);
    // Class 0 (new block) = 0.2; rank 0 gets the 0.7 remainder.
    EXPECT_DOUBLE_EQ(cdf[0], 0.2);
    EXPECT_DOUBLE_EQ(cdf[1], 0.9);
    EXPECT_DOUBLE_EQ(cdf[4], 1.0);
    EXPECT_DOUBLE_EQ(cdf[kMaxRank], 1.0);
}

TEST(ClassCdf, IsMonotone)
{
    RankPmf pmf;
    pmf.miss_prob = 0.1;
    for (std::uint32_t r = 0; r < kMaxRank; ++r) {
        pmf.rank[r] = 0.8 / kMaxRank;
    }
    const auto cdf = buildClassCdf(pmf);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i], cdf[i - 1]);
    }
}

// ---------------------------------------------------------------------------
// AppProfile analytics

TEST(AppProfile, MissRatioIsMonotoneInWays)
{
    for (const std::string &name : allSpecApps()) {
        const AppProfile &p = specProfile(name);
        for (std::uint32_t w = 1; w <= 16; ++w) {
            EXPECT_LE(p.expectedMissRatio(w), p.expectedMissRatio(w - 1))
                << name << " at " << w << " ways";
        }
    }
}

TEST(AppProfile, CalibrationTargetsTable3)
{
    // apki was derived so MPKI(solo, 8 ways) = apki * missRatio(8)
    // equals the paper's Table 3 figure.
    for (const std::string &name : allSpecApps()) {
        const AppProfile &p = specProfile(name);
        EXPECT_NEAR(p.primary.apki * p.expectedMissRatio(8),
                    p.table3_mpki, 1e-9)
            << name;
    }
}

// ---------------------------------------------------------------------------
// SyntheticStream behaviour

TEST(SyntheticStream, DeterministicForSameSeed)
{
    const AppProfile &p = specProfile("soplex");
    SyntheticStream a(p, smallGeometry(), 0, 42);
    SyntheticStream b(p, smallGeometry(), 0, 42);
    for (int i = 0; i < 2000; ++i) {
        const core::MemOp oa = a.next();
        const core::MemOp ob = b.next();
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_EQ(oa.gap_insts, ob.gap_insts);
        EXPECT_EQ(oa.type, ob.type);
    }
}

TEST(SyntheticStream, AddressSpacesAreDisjoint)
{
    const AppProfile &p = specProfile("gobmk");
    SyntheticStream a(p, smallGeometry(), 0, 1);
    SyntheticStream b(p, smallGeometry(), 1, 1);
    std::map<Addr, int> seen;
    for (int i = 0; i < 3000; ++i) {
        seen[a.next().addr] |= 1;
        seen[b.next().addr] |= 2;
    }
    for (const auto &[addr, mask] : seen) {
        EXPECT_NE(mask, 3) << "address shared across cores: " << addr;
    }
}

TEST(SyntheticStream, WriteFractionMatchesProfile)
{
    const AppProfile &p = specProfile("lbm"); // write_fraction 0.45
    SyntheticStream s(p, smallGeometry(), 0, 7);
    int writes = 0;
    constexpr int kOps = 20000;
    for (int i = 0; i < kOps; ++i) {
        writes += s.next().type == AccessType::Write ? 1 : 0;
    }
    EXPECT_NEAR(writes / static_cast<double>(kOps), p.write_fraction,
                0.02);
}

TEST(SyntheticStream, GapMatchesApki)
{
    const AppProfile &p = specProfile("soplex");
    SyntheticStream s(p, smallGeometry(), 0, 3);
    InstCount insts = 0;
    constexpr int kOps = 30000;
    for (int i = 0; i < kOps; ++i) {
        insts += s.next().gap_insts + 1;
    }
    const double apki =
        1000.0 * kOps / static_cast<double>(insts);
    EXPECT_NEAR(apki, p.primary.apki, 0.05 * p.primary.apki);
}

TEST(SyntheticStream, OpsAreBlockMapped)
{
    const AppProfile &p = specProfile("milc");
    SyntheticStream s(p, smallGeometry(), 0, 5);
    AddrSlicer slicer(128, 64);
    for (int i = 0; i < 1000; ++i) {
        const core::MemOp op = s.next();
        EXPECT_LT(slicer.set(op.addr), 128u);
    }
}

TEST(SyntheticStream, RealizedMissRatioMatchesAnalytic)
{
    // Replay each stream against an ideal per-set LRU of w ways: the
    // measured miss ratio must track expectedMissRatio(w). This is the
    // calibration contract the whole evaluation rests on.
    for (const char *name :
         {"soplex", "gobmk", "lbm", "h264ref", "perlbench"}) {
        const AppProfile &p = specProfile(name);
        AppProfile single = p;
        single.phase_insts = 0; // isolate the primary phase
        for (const std::uint32_t ways : {2u, 4u, 8u}) {
            SyntheticStream s(single, smallGeometry(), 0, 11);
            std::vector<std::vector<Addr>> sets(128);
            std::uint64_t misses = 0;
            constexpr int kOps = 60000;
            for (int i = 0; i < kOps; ++i) {
                const Addr a = s.next().addr;
                auto &list = sets[(a >> 6) & 127];
                bool hit = false;
                for (std::size_t j = 0; j < list.size(); ++j) {
                    if (list[j] == a) {
                        list.erase(list.begin() +
                                   static_cast<std::ptrdiff_t>(j));
                        hit = true;
                        break;
                    }
                }
                if (!hit) {
                    ++misses;
                }
                list.insert(list.begin(), a);
                if (list.size() > ways) {
                    list.pop_back();
                }
            }
            const double measured =
                misses / static_cast<double>(kOps);
            const double expected =
                single.primary.pmf.miss_prob +
                [&] {
                    double tail = 0.0;
                    for (std::uint32_t r = ways; r < kMaxRank; ++r) {
                        tail += single.primary.pmf.rank[r];
                    }
                    return tail;
                }();
            EXPECT_NEAR(measured, expected, 0.03)
                << name << " at " << ways << " ways";
        }
    }
}

TEST(SyntheticStream, PhasesAlternate)
{
    AppProfile p = specProfile("gcc");
    ASSERT_TRUE(p.hasPhases());
    p.phase_insts = 5000; // quick phases for the test

    SyntheticStream s(p, smallGeometry(), 0, 9);
    // Miss floors differ (0.15 vs 0.18): measure new-block rate per
    // window and check it moves.
    std::vector<double> floors;
    std::map<Addr, bool> seen;
    for (int window = 0; window < 8; ++window) {
        int news = 0;
        int ops = 0;
        const InstCount until = (window + 1) * 5000;
        while (s.generatedInsts() < until) {
            const Addr a = s.next().addr;
            ++ops;
            if (!seen.count(a)) {
                seen[a] = true;
                ++news;
            }
        }
        floors.push_back(news / static_cast<double>(ops));
    }
    // Later windows (footprint warmed) alternate between the phases'
    // new-block rates; just require visible variation.
    double lo = 1.0;
    double hi = 0.0;
    for (std::size_t i = 2; i < floors.size(); ++i) {
        lo = std::min(lo, floors[i]);
        hi = std::max(hi, floors[i]);
    }
    EXPECT_GT(hi - lo, 0.01);
}

TEST(SyntheticStream, OpSequenceMatchesPinnedDigest)
{
    // Every other generator check compares the generator with itself
    // (memo replay, record/replay, batch vs next()); these literals pin
    // what it produces. They were computed on the generator that kept
    // full 8-byte addresses in its per-set recency lists, before those
    // lists held block numbers, so a change to the op sequence fails
    // here even if it moves every consumer equally.
    struct Case
    {
        const char *app;
        /** Phase length scale: the run scale's epoch / 5 M cycles. */
        double phase_factor;
        StreamGeometry geometry;
        std::uint32_t slot;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const Case cases[] = {
        // High MPKI, phased (bench-scale phase lengths), bench geometry.
        {"soplex", 300'000.0 / 5'000'000.0, {512, 64}, 0, 42,
         0x5e5d47d08850b0a1ull},
        // Medium MPKI, phased (test-scale phase lengths), test geometry.
        {"mcf", 60'000.0 / 5'000'000.0, {128, 64}, 63, 42 + 63 * 7919,
         0xe40fc0905b291cb6ull},
        // Low MPKI, bench and test geometry, both slots.
        {"h264ref", 1.0, {512, 64}, 63, 7 + 63 * 7919,
         0xb11ffac6818fa7aaull},
        {"h264ref", 1.0, {128, 64}, 0, 7, 0xfa8b6b081f89cf26ull},
        // 2 GiB blocks in 32 sets start a block's tag bits at bit 36,
        // so bit 8 of a block number lands on the space tag's bit 44:
        // block numbers that differ only there share an address, and
        // often a set. The recency lists must treat them as one block.
        {"lbm", 1.0, {32, 1u << 31}, 0, 5, 0x356651a0ff173ff1ull},
    };
    constexpr std::size_t kOps = std::size_t{1} << 20;

    for (const Case &c : cases) {
        AppProfile p = specProfile(c.app);
        p.phase_insts = static_cast<InstCount>(
            static_cast<double>(p.phase_insts) * c.phase_factor);
        SyntheticStream s(p, c.geometry, c.slot, c.seed);

        // FNV-1a over each op's fields, fed least significant byte
        // first so the digest does not depend on host byte order.
        std::uint64_t h = 0xcbf29ce484222325ull;
        auto feed = [&h](std::uint64_t v, int bytes) {
            for (int i = 0; i < bytes; ++i) {
                h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
            }
        };
        std::vector<core::MemOp> ops(4096);
        for (std::size_t done = 0; done < kOps; done += ops.size()) {
            s.nextBatch(ops.data(), ops.size());
            for (const core::MemOp &op : ops) {
                feed(op.addr, 8);
                feed(op.gap_insts, 8);
                feed(static_cast<std::uint8_t>(op.type), 1);
                // The L1-filtered flag the ops carried when these
                // digests were taken: every op had it set.
                feed(1, 1);
            }
        }
        EXPECT_EQ(h, c.digest)
            << c.app << " slot " << c.slot << " on "
            << c.geometry.llc_sets << "x" << c.geometry.block_bytes
            << ": got 0x" << std::hex << h;
    }
}

// ---------------------------------------------------------------------------
// Table 3 / Table 4 data

TEST(SpecProfiles, AllNineteenBenchmarksExist)
{
    EXPECT_EQ(allSpecApps().size(), 19u);
    for (const std::string &name : allSpecApps()) {
        EXPECT_EQ(specProfile(name).name, name);
    }
}

TEST(SpecProfiles, Table3Classification)
{
    // Spot-check the paper's Table 3 classes.
    EXPECT_EQ(mpkiClassOf("gobmk"), MpkiClass::High);
    EXPECT_EQ(mpkiClassOf("lbm"), MpkiClass::High);
    EXPECT_EQ(mpkiClassOf("sjeng"), MpkiClass::High);
    EXPECT_EQ(mpkiClassOf("soplex"), MpkiClass::High);
    EXPECT_EQ(mpkiClassOf("astar"), MpkiClass::Medium);
    EXPECT_EQ(mpkiClassOf("gcc"), MpkiClass::Medium);
    EXPECT_EQ(mpkiClassOf("mcf"), MpkiClass::Medium);
    EXPECT_EQ(mpkiClassOf("povray"), MpkiClass::Low);
    EXPECT_EQ(mpkiClassOf("namd"), MpkiClass::Low);
    EXPECT_EQ(mpkiClassOf("perlbench"), MpkiClass::Low);
}

TEST(SpecProfiles, ClassifierBoundaries)
{
    EXPECT_EQ(classifyMpki(5.01), MpkiClass::High);
    EXPECT_EQ(classifyMpki(5.0), MpkiClass::Medium);
    EXPECT_EQ(classifyMpki(1.01), MpkiClass::Medium);
    EXPECT_EQ(classifyMpki(1.0), MpkiClass::Low);
    EXPECT_STREQ(mpkiClassName(MpkiClass::High), "High");
}

TEST(Workloads, Table4GroupsAreComplete)
{
    EXPECT_EQ(twoCoreGroups().size(), 14u);
    EXPECT_EQ(fourCoreGroups().size(), 14u);
    for (const auto &g : twoCoreGroups()) {
        EXPECT_EQ(g.apps.size(), 2u) << g.name;
        for (const auto &app : g.apps) {
            specProfile(app); // fatal() would throw on a bad name
        }
    }
    for (const auto &g : fourCoreGroups()) {
        EXPECT_EQ(g.apps.size(), 4u) << g.name;
    }
}

TEST(Workloads, EveryTwoCoreGroupHasAHighMpkiApp)
{
    // Table 4's construction rule: at least one app with MPKI > 5.
    for (const auto &g : twoCoreGroups()) {
        bool high = false;
        for (const auto &app : g.apps) {
            high = high || mpkiClassOf(app) == MpkiClass::High;
        }
        EXPECT_TRUE(high) << g.name;
    }
}

TEST(Workloads, SpotCheckTable4Rows)
{
    EXPECT_EQ(groupByName("G2-3").apps,
              (std::vector<std::string>{"gobmk", "h264ref"}));
    EXPECT_EQ(groupByName("G2-12").apps,
              (std::vector<std::string>{"soplex", "gcc"}));
    EXPECT_EQ(groupByName("G4-13").apps,
              (std::vector<std::string>{"soplex", "gcc", "libquantum",
                                        "xalan"}));
    EXPECT_EQ(groupProfiles(groupByName("G2-1")).at(1).name, "namd");
}
