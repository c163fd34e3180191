/**
 * @file
 * Hot-path microbenchmarks for the simulator itself (host throughput,
 * not simulated metrics), covering the three paths this repo's
 * performance work targets:
 *
 *  1. masked tag lookup / victim selection in SetAssocCache, which the
 *     bit-scan way iteration accelerates (a linear 0..63 scan is timed
 *     alongside as the reference the optimisation replaced), plus the
 *     banked variants: the slice-selection hash alone (mod and
 *     xor-fold, slice_hash_ns) and a hashed 4-slice lookup over the
 *     same total geometry (banked_lookup_ns; the CI build-and-test job
 *     asserts it stays within 1.5x of the monolithic lookup),
 *  2. UMON ATD accesses with a full (sample_period = 1) directory, the
 *     per-access cost the incremental recency ordering shaved,
 *  3. the event-loop driver itself: net arbitration + dispatch cost
 *     per step (run_step_ns) for the pre-batching per-op loop versus
 *     the batched-quantum loop, with an identical-sequence no-driver
 *     replay subtracted as the op-work baseline (see benchDriverCost),
 *  4. trace-replay op production: a `.cooptrace` file replayed
 *     through StreamCache::openTraceFile (the `--trace-dir` path)
 *     versus SyntheticStream generation over the identical op
 *     sequence, with an in-memory replay of the pre-decoded ops
 *     subtracted as the consumption baseline (replay_step_ns; the CI
 *     build-and-test job asserts it does not exceed run_step_ns),
 *  5. one complete bench-scale reference run (coop / G4-1) end to end
 *     under both driver modes — wall seconds, per-op cost, and the
 *     average quantum length actually achieved (quantum_avg_ops; the
 *     CI build-and-test job asserts it exceeds 1), with the two modes'
 *     results checked bit-identical — and
 *  6. end-to-end sweep throughput: the complete fig05-fig16 simulation
 *     key set executed serially on one thread versus through the
 *     parallel RunExecutor.
 *
 * Results are printed and written to BENCH_hotpath.json (overwritten
 * per run; the committed copy at the repo root is the recorded
 * measurement tracking the trajectory from PR to PR). The JSON also
 * records host metadata — core count, compiler, git revision — so
 * numbers recorded in different PRs are comparable. No
 * google-benchmark dependency: plain steady_clock loops, so this
 * always builds.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <coopsim/experiment.hpp>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "llc/slice_hash.hpp"
#include "sim/min_clock_tree.hpp"
#include "sim/stream_cache.hpp"
#include "sim/system.hpp"
#include "store/result_store.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"
#include "tracefile/trace_format.hpp"
#include "umon/umon.hpp"

using namespace coopsim;
using Clock = std::chrono::steady_clock;

namespace
{

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Pre-bit-scan semantics: test every way position under the mask. */
cache::LookupResult
linearLookup(const cache::SetAssocCache &array, Addr addr,
             cache::WayMask mask)
{
    const SetId set = array.slicer().set(addr);
    const Addr tag = array.slicer().tag(addr);
    for (std::uint32_t w = 0; w < array.ways(); ++w) {
        if (!((mask >> w) & 1)) {
            continue;
        }
        const cache::CacheBlock &blk = array.block(set, w);
        if (blk.valid && blk.tag == tag) {
            return {true, static_cast<WayId>(w)};
        }
    }
    return {false, kNoWay};
}

struct LookupTimes
{
    double bitscan_ns = 0.0;
    double linear_ns = 0.0;
    double victim_ns = 0.0;
};

/** Times masked lookup (both implementations) and victim selection. */
LookupTimes
benchMaskedLookup(std::uint64_t &checksum)
{
    // 1 MiB, 16-way: the paper's LLC associativity at a bench-friendly
    // set count.
    cache::SetAssocCache array({1024ull * 16 * 64, 16, 64});
    Rng rng(7);

    // Fill ~3/4 of each set so lookups see a realistic mix of valid
    // and invalid ways.
    const std::uint32_t sets = array.numSets();
    for (SetId set = 0; set < sets; ++set) {
        for (std::uint32_t w = 0; w < 12; ++w) {
            const Addr addr = (rng.nextBelow(1u << 12) << 16) |
                              (static_cast<Addr>(set) << 6);
            const WayId way = array.victim(set, cache::fullMask(16));
            array.insert(addr, set, way,
                         static_cast<CoreId>(rng.nextBelow(2)), false);
        }
    }

    // One shared (addr, mask) stream so all three loops do identical
    // work. Masks are random non-empty partitions of the 16 ways, the
    // shape the way-partitioned LLC probes with.
    constexpr std::size_t kOps = 1u << 20;
    std::vector<Addr> addrs(kOps);
    std::vector<cache::WayMask> masks(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
        addrs[i] = (rng.nextBelow(1u << 12) << 16) |
                   (rng.nextBelow(sets) << 6);
        cache::WayMask mask = rng.nextBelow(1u << 16);
        masks[i] = mask ? mask : cache::fullMask(16);
    }

    LookupTimes times;
    {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOps; ++i) {
            checksum += array.lookup(addrs[i], masks[i]).hit;
        }
        times.bitscan_ns = seconds(t0, Clock::now()) * 1e9 / kOps;
    }
    {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOps; ++i) {
            checksum += linearLookup(array, addrs[i], masks[i]).hit;
        }
        times.linear_ns = seconds(t0, Clock::now()) * 1e9 / kOps;
    }
    {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOps; ++i) {
            checksum += array.victim(array.slicer().set(addrs[i]),
                                     masks[i]);
        }
        times.victim_ns = seconds(t0, Clock::now()) * 1e9 / kOps;
    }
    return times;
}

struct SliceHashTimes
{
    double mod_ns = 0.0;
    double xor_ns = 0.0;
    double banked_lookup_ns = 0.0;
};

/**
 * Times the slice-selection hash stage and the full banked lookup it
 * fronts: the same 1 MiB / 16-way geometry as benchMaskedLookup, split
 * into 4 slices, each access paying one xor-fold bank() plus one
 * bank-local masked lookup. banked_lookup_ns vs
 * masked_lookup_bitscan_ns is therefore the per-access cost of banking
 * itself (hash + smaller per-slice set array); CI bounds the ratio.
 */
SliceHashTimes
benchSliceHash(std::uint64_t &checksum)
{
    constexpr std::uint32_t kBanks = 4;
    constexpr std::uint64_t kBankSets = 1024 / kBanks;
    constexpr std::size_t kOps = 1u << 20;
    const llc::SliceHash mod(llc::SliceHashKind::Mod, kBanks, 64,
                             kBankSets);
    const llc::SliceHash fold(llc::SliceHashKind::Xor, kBanks, 64,
                              kBankSets);

    // The same (addr, mask) stream shape as benchMaskedLookup, over
    // the banked set range.
    Rng rng(13);
    std::vector<Addr> addrs(kOps);
    std::vector<cache::WayMask> masks(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
        addrs[i] = (rng.nextBelow(1u << 12) << 16) |
                   (rng.nextBelow(kBankSets * kBanks) << 6);
        cache::WayMask mask = rng.nextBelow(1u << 16);
        masks[i] = mask ? mask : cache::fullMask(16);
    }

    SliceHashTimes times;
    {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOps; ++i) {
            checksum += mod.bank(addrs[i]);
        }
        times.mod_ns = seconds(t0, Clock::now()) * 1e9 / kOps;
    }
    {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOps; ++i) {
            checksum += fold.bank(addrs[i]);
        }
        times.xor_ns = seconds(t0, Clock::now()) * 1e9 / kOps;
    }

    // Four 256 KiB slices, each ~3/4 full like the monolithic array.
    std::vector<std::unique_ptr<cache::SetAssocCache>> banks;
    for (std::uint32_t b = 0; b < kBanks; ++b) {
        banks.push_back(std::make_unique<cache::SetAssocCache>(
            cache::CacheGeometry{kBankSets * 16 * 64, 16, 64}));
        for (SetId set = 0; set < kBankSets; ++set) {
            for (std::uint32_t w = 0; w < 12; ++w) {
                const Addr addr = (rng.nextBelow(1u << 12) << 16) |
                                  (static_cast<Addr>(set) << 6);
                const WayId way =
                    banks[b]->victim(set, cache::fullMask(16));
                banks[b]->insert(addr, set, way,
                                 static_cast<CoreId>(rng.nextBelow(2)),
                                 false);
            }
        }
    }
    {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOps; ++i) {
            const std::uint32_t b = fold.bank(addrs[i]);
            checksum += banks[b]->lookup(addrs[i], masks[i]).hit;
        }
        times.banked_lookup_ns = seconds(t0, Clock::now()) * 1e9 / kOps;
    }
    return times;
}

/** Times UtilityMonitor::access with a full ATD (every set sampled). */
double
benchUmonAccess(std::uint64_t &checksum)
{
    umon::UmonConfig config;
    config.llc_sets = 1024;
    config.llc_ways = 16;
    config.sample_period = 1;
    umon::UtilityMonitor monitor(config);

    Rng rng(11);
    constexpr std::size_t kOps = 1u << 20;
    std::vector<Addr> addrs(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
        // ~2x the ATD capacity worth of distinct blocks: plenty of
        // hits at varied recency positions plus steady misses.
        addrs[i] = rng.nextBelow(2048u * 16) << 6;
    }

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
        monitor.access(addrs[i]);
    }
    const double ns = seconds(t0, Clock::now()) * 1e9 / kOps;
    checksum += monitor.missCount();
    return ns;
}

// ---------------------------------------------------------------------------
// Driver arbitration + dispatch cost

struct DriverCost
{
    /** Whole-loop ns/step of each driver flavour. */
    double perop_loop_ns = 0.0;
    double batched_loop_ns = 0.0;
    /** Op production + execution alone (no arbitration, no per-op
     *  delivery): the part of each loop that is NOT the driver. */
    double baseline_ns = 0.0;
    double quantum_avg_ops = 0.0;

    /** Net per-step driver + dispatch cost of each flavour. */
    double peropNs() const { return perop_loop_ns - baseline_ns; }
    double batchedNs() const { return batched_loop_ns - baseline_ns; }
};

/**
 * Phase geometry shared by the two cost streams below: both walk the
 * identical LCG op sequence and the identical phase schedule, so the
 * driver loops built on them execute the same global step sequence —
 * they differ only in WHEN the phase/gap parameters are (re)computed
 * and how ops are delivered.
 */
constexpr std::uint64_t kDriverBenchPhaseInsts = 1u << 20;

/**
 * Op production with the pre-batching tree's per-op costs: every op
 * pays the phase selection (an integer division on the instruction
 * count), the geometric-gap setup (a log1p call — the seed generator
 * recomputed log1p(-p) on every draw), and a virtual delivery into
 * the core. These are exactly the per-op overheads this PR hoisted
 * (SyntheticStream's cached phase/CDF/log1p state, TraceCore's op
 * ring buffer), reproduced in isolation.
 */
class SeedCostStream final : public core::OpStream
{
  public:
    explicit SeedCostStream(std::uint64_t seed) : x_(seed) {}

    core::MemOp next() override
    {
        const std::uint64_t phase = insts_ / kDriverBenchPhaseInsts;
        const double p = (phase % 2 == 0) ? 0.01 : 0.03;
        gap_setup_ += std::log1p(-p);
        x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
        core::MemOp op;
        op.addr = x_;
        insts_ += 1 + (x_ & 63);
        return op;
    }

    /** Keeps the transcendental from being dead-code-eliminated. */
    double gapSetup() const { return gap_setup_; }

  private:
    std::uint64_t x_;
    std::uint64_t insts_ = 0;
    double gap_setup_ = 0.0;
};

/**
 * The same op sequence produced the shipped way: phase parameters are
 * cached and refreshed only when the instruction count crosses the
 * phase boundary, and ops are delivered in nextBatch() batches.
 */
class BatchedCostStream final : public core::OpStream
{
  public:
    explicit BatchedCostStream(std::uint64_t seed) : x_(seed)
    {
        refreshPhase();
    }

    core::MemOp next() override { return generate(); }

    std::size_t nextBatch(core::MemOp *out, std::size_t max) override
    {
        for (std::size_t i = 0; i < max; ++i) {
            out[i] = generate();
        }
        return max;
    }

    double gapSetup() const { return gap_setup_; }

  private:
    void refreshPhase()
    {
        const std::uint64_t phase = insts_ / kDriverBenchPhaseInsts;
        const double p = (phase % 2 == 0) ? 0.01 : 0.03;
        cached_log_ = std::log1p(-p);
        phase_switch_ = (phase + 1) * kDriverBenchPhaseInsts;
    }

    core::MemOp generate()
    {
        if (insts_ >= phase_switch_) {
            refreshPhase();
        }
        gap_setup_ += cached_log_;
        x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
        core::MemOp op;
        op.addr = x_;
        insts_ += 1 + (x_ & 63);
        return op;
    }

    std::uint64_t x_;
    std::uint64_t insts_ = 0;
    std::uint64_t phase_switch_ = 0;
    double cached_log_ = 0.0;
    double gap_setup_ = 0.0;
};

/** A core model reduced to the driver-facing surface of TraceCore:
 *  the clock advance per op is a cheap hash of the op. */
struct DriverBenchCore
{
    core::OpStream &stream;
    Cycle cycle = 0;
    std::array<core::MemOp, 64> buf{};
    std::size_t pos = 0;
    std::size_t len = 0;

    void apply(const core::MemOp &op)
    {
        // Advance shape of the real core model: width-limited
        // retirement of short gaps, punctuated by DRAM-latency stalls
        // on (roughly) every eighth op. This reproduces the measured
        // ~4-op average quantum of the paper's two-core runs.
        const std::uint64_t h = op.addr >> 32;
        cycle += 4 + (h & 7);
        if ((h & 0x700) == 0) {
            cycle += 160 + (h & 127);
        }
    }

    /** The seed tree's per-op dispatch: one out-of-line call into the
     *  core, one virtual OpStream::next() per op. */
    __attribute__((noinline)) void stepPerOp() { apply(stream.next()); }

    /** The batched dispatch: one out-of-line call per quantum, ops
     *  pulled from the ring buffer (one virtual call per 64). */
    __attribute__((noinline)) std::uint64_t stepQuantum(Cycle bound)
    {
        std::uint64_t ops = 0;
        do {
            if (pos == len) {
                len = stream.nextBatch(buf.data(), buf.size());
                pos = 0;
            }
            apply(buf[pos++]);
            ++ops;
        } while (cycle < bound);
        return ops;
    }
};

/**
 * The per-step driver + dispatch cost of System::run(), isolated.
 *
 * Three loops run the identical global op sequence (final clocks are
 * cross-checked):
 *
 *  - per-op: the pre-batching event loop — tree consult + update and
 *    an out-of-line core step with a virtual stream access (plus the
 *    seed generator's per-op phase division and log1p gap setup) for
 *    every single op;
 *  - batched: the shipped loop — arbitration once per second-minimum
 *    quantum, ops delivered from the ring buffer, phase/gap state
 *    cached;
 *  - baseline: op production + execution with no driver at all (each
 *    core's ops replayed straight), measuring the work that is NOT
 *    driver or dispatch.
 *
 * run_step_ns = batched − baseline and run_step_perop_ns = per-op −
 * baseline are therefore the net driver+dispatch cost per step of the
 * two designs — the acceptance numbers.
 */
DriverCost
benchDriverCost(std::uint64_t &checksum)
{
    constexpr std::uint32_t kCores = 2;
    constexpr Cycle kHorizon = 1u << 27;

    DriverCost times;
    Cycle perop_sum = 0;
    std::uint64_t perop_steps = 0;
    std::vector<std::uint64_t> steps_per_core(kCores, 0);
    {
        std::vector<SeedCostStream> streams;
        std::vector<DriverBenchCore> cores;
        for (std::uint32_t c = 0; c < kCores; ++c) {
            streams.emplace_back(0x9e3779b9ull * (c + 1));
        }
        for (std::uint32_t c = 0; c < kCores; ++c) {
            cores.push_back(DriverBenchCore{streams[c]});
        }
        std::vector<Cycle> clock(kCores, 0);
        sim::MinClockTree tree(clock);
        const auto t0 = Clock::now();
        for (;;) {
            const std::uint32_t c = tree.minIndex();
            if (clock[c] >= kHorizon) {
                break;
            }
            cores[c].stepPerOp();
            clock[c] = cores[c].cycle;
            tree.update(c, clock[c]);
            ++steps_per_core[c];
            ++perop_steps;
        }
        times.perop_loop_ns =
            seconds(t0, Clock::now()) * 1e9 /
            static_cast<double>(perop_steps);
        perop_sum = std::accumulate(clock.begin(), clock.end(), Cycle{0});
        checksum += streams[0].gapSetup() < 0.0 ? 1 : 0;
    }
    Cycle batched_sum = 0;
    std::uint64_t batched_steps = 0;
    std::uint64_t batched_quanta = 0;
    {
        std::vector<BatchedCostStream> streams;
        std::vector<DriverBenchCore> cores;
        for (std::uint32_t c = 0; c < kCores; ++c) {
            streams.emplace_back(0x9e3779b9ull * (c + 1));
        }
        for (std::uint32_t c = 0; c < kCores; ++c) {
            cores.push_back(DriverBenchCore{streams[c]});
        }
        std::vector<Cycle> clock(kCores, 0);
        sim::MinClockTree tree(clock);
        const auto t0 = Clock::now();
        for (;;) {
            const std::uint32_t c = tree.minIndex();
            if (clock[c] >= kHorizon) {
                break;
            }
            const sim::MinClockTree::Second second = tree.secondBest();
            const Cycle bound = c < second.index ? second.clock + 1
                                                 : second.clock;
            batched_steps +=
                cores[c].stepQuantum(std::min(bound, kHorizon));
            ++batched_quanta;
            clock[c] = cores[c].cycle;
            tree.update(c, clock[c]);
        }
        times.batched_loop_ns =
            seconds(t0, Clock::now()) * 1e9 /
            static_cast<double>(batched_steps);
        times.quantum_avg_ops =
            static_cast<double>(batched_steps) /
            static_cast<double>(batched_quanta);
        batched_sum =
            std::accumulate(clock.begin(), clock.end(), Cycle{0});
        checksum += streams[0].gapSetup() < 0.0 ? 1 : 0;
    }
    if (perop_sum != batched_sum || perop_steps != batched_steps) {
        std::fprintf(stderr,
                     "FATAL: per-op/batched driver loops diverged "
                     "(clock sums %llu vs %llu, steps %llu vs %llu)\n",
                     static_cast<unsigned long long>(perop_sum),
                     static_cast<unsigned long long>(batched_sum),
                     static_cast<unsigned long long>(perop_steps),
                     static_cast<unsigned long long>(batched_steps));
        std::exit(1);
    }
    Cycle baseline_sum = 0;
    {
        std::vector<BatchedCostStream> streams;
        std::vector<DriverBenchCore> cores;
        for (std::uint32_t c = 0; c < kCores; ++c) {
            streams.emplace_back(0x9e3779b9ull * (c + 1));
        }
        for (std::uint32_t c = 0; c < kCores; ++c) {
            cores.push_back(DriverBenchCore{streams[c]});
        }
        const auto t0 = Clock::now();
        for (std::uint32_t c = 0; c < kCores; ++c) {
            DriverBenchCore &core = cores[c];
            for (std::uint64_t i = 0; i < steps_per_core[c]; ++i) {
                if (core.pos == core.len) {
                    core.len = core.stream.nextBatch(core.buf.data(),
                                                     core.buf.size());
                    core.pos = 0;
                }
                core.apply(core.buf[core.pos++]);
            }
            baseline_sum += core.cycle;
        }
        times.baseline_ns =
            seconds(t0, Clock::now()) * 1e9 /
            static_cast<double>(perop_steps);
        checksum += streams[0].gapSetup() < 0.0 ? 1 : 0;
    }
    if (baseline_sum != perop_sum) {
        std::fprintf(stderr,
                     "FATAL: baseline replay diverged (clock sum %llu "
                     "vs %llu)\n",
                     static_cast<unsigned long long>(baseline_sum),
                     static_cast<unsigned long long>(perop_sum));
        std::exit(1);
    }
    checksum += perop_sum;
    return times;
}

// ---------------------------------------------------------------------------
// Trace replay decode cost

struct ReplayCost
{
    /** Whole-loop ns/op: decode-from-file vs generate-from-profile. */
    double replay_loop_ns = 0.0;
    double generate_loop_ns = 0.0;
    /** The op-consumption work alone (pre-decoded ops applied from
     *  memory): the part of both loops that is NOT production. */
    double baseline_ns = 0.0;

    /** Net per-op production cost of each source. */
    double replayNs() const { return replay_loop_ns - baseline_ns; }
    double generateNs() const { return generate_loop_ns - baseline_ns; }
};

/**
 * The per-op cost of replaying a trace file — the replacement for
 * SyntheticStream in a `trace:` replay run. ~1M gobmk ops are
 * written once (untimed) through tracefile::encodeTrace and the
 * durable writer, exactly as `--record` writes them, then three loops
 * consume the identical sequence through the 64-op batch interface
 * TraceCore uses:
 *
 *  - replay: StreamCache::openTraceFile decoding the loaded frames,
 *    the path a `--trace-dir` run takes;
 *  - generate: SyntheticStream producing the same ops from the
 *    profile (what the non-replay run pays);
 *  - baseline: the ops pre-decoded into a vector and applied from
 *    memory, measuring the consumption side alone.
 *
 * replay_step_ns = replay − baseline is the net decode cost per op;
 * the CI build-and-test job asserts it stays at or below run_step_ns
 * (the driver's own per-step budget), i.e. replay does not become
 * the new hot-path bottleneck. All three checksums must agree — a
 * decode bug that survives the CRCs would show up here.
 */
ReplayCost
benchReplayCost(std::uint64_t &checksum)
{
    constexpr std::uint64_t kOps = 1u << 20;
    const trace::AppProfile &profile = trace::specProfile("gobmk");
    const trace::StreamGeometry geometry{512, 64};
    const std::uint64_t seed = 42;

    const std::string path = "BENCH_replay.gobmk.0.cooptrace";
    tracefile::TraceHeader header;
    header.core = 0;
    header.num_cores = 1;
    header.seed = seed;
    header.llc_sets = geometry.llc_sets;
    header.block_bytes = geometry.block_bytes;
    header.workload = "BENCH_replay.gobmk";
    header.app = profile.name;
    header.scale = "bench";
    {
        trace::SyntheticStream source(profile, geometry, 0, seed);
        const std::string image =
            tracefile::encodeTrace(header, source, kOps);
        std::string error;
        if (!store::writeFileDurably(path, image, error)) {
            std::fprintf(stderr, "FATAL: %s\n", error.c_str());
            std::exit(1);
        }
    }
    sim::StreamCache::Key key;
    key.workload = "trace:" + header.workload;
    key.seed = seed;
    key.scale = header.scale;
    key.geometry = geometry;
    const auto openReplay = [&] {
        return sim::StreamCache::instance().openTraceFile(key, path, header);
    };

    const auto consume = [](const core::MemOp &op) {
        return op.addr + op.gap_insts +
               (op.type == AccessType::Write ? 1u : 0u);
    };

    ReplayCost times;
    std::uint64_t replay_sum = 0;
    {
        const auto stream = openReplay();
        core::MemOp buffer[64];
        const auto t0 = Clock::now();
        for (std::uint64_t n = 0; n < kOps; n += 64) {
            stream->nextBatch(buffer, 64);
            for (const core::MemOp &op : buffer) {
                replay_sum += consume(op);
            }
        }
        times.replay_loop_ns =
            seconds(t0, Clock::now()) * 1e9 / static_cast<double>(kOps);
    }
    std::uint64_t generate_sum = 0;
    {
        trace::SyntheticStream stream(profile, geometry, 0, seed);
        core::MemOp buffer[64];
        const auto t0 = Clock::now();
        for (std::uint64_t n = 0; n < kOps; n += 64) {
            stream.nextBatch(buffer, 64);
            for (const core::MemOp &op : buffer) {
                generate_sum += consume(op);
            }
        }
        times.generate_loop_ns =
            seconds(t0, Clock::now()) * 1e9 / static_cast<double>(kOps);
    }
    std::uint64_t baseline_sum = 0;
    {
        std::vector<core::MemOp> decoded(kOps);
        const auto stream = openReplay();
        for (std::uint64_t n = 0; n < kOps; n += 64) {
            stream->nextBatch(decoded.data() + n, 64);
        }
        const auto t0 = Clock::now();
        for (const core::MemOp &op : decoded) {
            baseline_sum += consume(op);
        }
        times.baseline_ns =
            seconds(t0, Clock::now()) * 1e9 / static_cast<double>(kOps);
    }
    if (replay_sum != generate_sum || replay_sum != baseline_sum) {
        std::fprintf(stderr,
                     "FATAL: replay/generate/baseline op streams "
                     "diverged (checksums %llu / %llu / %llu)\n",
                     static_cast<unsigned long long>(replay_sum),
                     static_cast<unsigned long long>(generate_sum),
                     static_cast<unsigned long long>(baseline_sum));
        std::exit(1);
    }
    std::remove(path.c_str());
    checksum += replay_sum;
    return times;
}

// ---------------------------------------------------------------------------
// Stream-memo cost (sim::StreamCache)

struct MemoCost
{
    /** Whole-loop ns/op of the first (generating) and second
     *  (replaying) pass through one memoized stream. */
    double cold_loop_ns = 0.0;
    double warm_loop_ns = 0.0;
    /** Consumption from pre-decoded memory, the non-production part. */
    double baseline_ns = 0.0;

    double coldNs() const { return cold_loop_ns - baseline_ns; }
    double warmNs() const { return warm_loop_ns - baseline_ns; }
};

/**
 * The per-op cost of the stream memo's two paths: the first open of a
 * key generates and encodes each segment on demand before decoding it
 * (stream_memo_cold_ns — generation plus the one-time encode tax),
 * and every later open replays the in-memory frames through the same
 * FrameDecoder a trace-file replay uses (stream_memo_warm_ns). The
 * warm path is the one every repeated run in a sweep pays, so the CI
 * build-and-test job bounds it by 2x replay_step_ns in
 * BENCH_hotpath.json — memo replay must not be meaningfully slower
 * than file replay. The three checksums (cold,
 * warm, plain SyntheticStream) must agree: the memo is a transparent
 * cache, not a different stream.
 */
MemoCost
benchStreamMemo(std::uint64_t &checksum)
{
    constexpr std::uint64_t kOps = 1u << 20;
    const trace::AppProfile &profile = trace::specProfile("gobmk");
    const trace::StreamGeometry geometry{512, 64};

    sim::StreamCache &cache = sim::StreamCache::instance();
    sim::StreamCache::Key key;
    key.workload = "BENCH_memo.gobmk";
    key.slot = 0;
    key.seed = 42;
    key.scale = "bench";
    key.geometry = geometry;

    const auto consume = [](const core::MemOp &op) {
        return op.addr + op.gap_insts +
               (op.type == AccessType::Write ? 1u : 0u);
    };

    MemoCost times;
    std::uint64_t cold_sum = 0;
    {
        auto stream = cache.open(key, profile, key.seed);
        core::MemOp buffer[64];
        const auto t0 = Clock::now();
        for (std::uint64_t n = 0; n < kOps; n += 64) {
            stream->nextBatch(buffer, 64);
            for (const core::MemOp &op : buffer) {
                cold_sum += consume(op);
            }
        }
        times.cold_loop_ns =
            seconds(t0, Clock::now()) * 1e9 / static_cast<double>(kOps);
    }
    std::uint64_t warm_sum = 0;
    {
        auto stream = cache.open(key, profile, key.seed);
        core::MemOp buffer[64];
        const auto t0 = Clock::now();
        for (std::uint64_t n = 0; n < kOps; n += 64) {
            stream->nextBatch(buffer, 64);
            for (const core::MemOp &op : buffer) {
                warm_sum += consume(op);
            }
        }
        times.warm_loop_ns =
            seconds(t0, Clock::now()) * 1e9 / static_cast<double>(kOps);
    }
    std::uint64_t plain_sum = 0;
    {
        trace::SyntheticStream stream(profile, geometry, 0, key.seed);
        std::vector<core::MemOp> decoded(kOps);
        for (std::uint64_t n = 0; n < kOps; n += 64) {
            stream.nextBatch(decoded.data() + n, 64);
        }
        const auto t0 = Clock::now();
        for (const core::MemOp &op : decoded) {
            plain_sum += consume(op);
        }
        times.baseline_ns =
            seconds(t0, Clock::now()) * 1e9 / static_cast<double>(kOps);
    }
    if (cold_sum != warm_sum || cold_sum != plain_sum) {
        std::fprintf(stderr,
                     "FATAL: memo cold/warm/plain op streams diverged "
                     "(checksums %llu / %llu / %llu)\n",
                     static_cast<unsigned long long>(cold_sum),
                     static_cast<unsigned long long>(warm_sum),
                     static_cast<unsigned long long>(plain_sum));
        std::exit(1);
    }
    checksum += cold_sum;
    return times;
}

// ---------------------------------------------------------------------------
// End-to-end reference run (both driver modes)

struct SingleRun
{
    double batched_s = 0.0;
    double perop_s = 0.0;
    std::uint64_t steps = 0;
    double quantum_avg_ops = 0.0;
};

/**
 * One complete simulation — coop / G4-1 at bench scale, the fig08
 * configuration — run end to end under each driver mode. The two
 * results must be bit-identical (store::formatResult compares every
 * RunResult field exactly); the timing difference is the batching win
 * in situ, and the driver stats record the quantum length achieved.
 * Always bench scale, so recorded numbers are comparable across runs
 * regardless of --scale.
 */
SingleRun
benchSingleRun(std::uint64_t &checksum)
{
    const trace::WorkloadGroup &group = trace::groupByName("G4-1");
    sim::SystemConfig config =
        sim::makeSystemConfig(4, "coop", sim::RunScale::Bench);

    SingleRun times;
    std::string batched_line;
    std::string perop_line;
    {
        config.driver = sim::DriverMode::Batched;
        sim::System system(config, trace::groupProfiles(group));
        const auto t0 = Clock::now();
        const sim::RunResult result = system.run();
        times.batched_s = seconds(t0, Clock::now());
        times.steps = system.driverStats().steps;
        times.quantum_avg_ops = system.driverStats().avgQuantumOps();
        batched_line = store::formatResult(result);
        checksum += result.total_cycles;
    }
    {
        config.driver = sim::DriverMode::PerOp;
        sim::System system(config, trace::groupProfiles(group));
        const auto t0 = Clock::now();
        const sim::RunResult result = system.run();
        times.perop_s = seconds(t0, Clock::now());
        perop_line = store::formatResult(result);
    }
    if (batched_line != perop_line) {
        std::fprintf(stderr,
                     "FATAL: batched and per-op drivers disagree:\n"
                     "  batched: %s\n  per-op:  %s\n",
                     batched_line.c_str(), perop_line.c_str());
        std::exit(1);
    }
    return times;
}

/**
 * The same reference simulation under the composed sampling estimator
 * (setop: 1-in-4 set sampling + 32 op-sampling windows). The sampled
 * result is an estimate, not a bit-reproduction, so there is no
 * equality check here — accuracy is the differential suite's job
 * (tests/test_sampling.cpp); this measures the wall-clock the
 * estimators buy on one run. sampling_speedup = single_run_s /
 * sampled_run_s is the recorded acceptance number.
 */
double
benchSampledRun(std::uint64_t &checksum)
{
    const trace::WorkloadGroup &group = trace::groupByName("G4-1");
    sim::SystemConfig config =
        sim::makeSystemConfig(4, "coop", sim::RunScale::Bench);
    config.sampling = sampling::Mode::SetOp;

    sim::System system(config, trace::groupProfiles(group));
    const auto t0 = Clock::now();
    const sim::RunResult result = system.run();
    const double sampled_s = seconds(t0, Clock::now());
    if (result.sample_windows == 0) {
        std::fprintf(stderr,
                     "FATAL: sampled run reported no windows\n");
        std::exit(1);
    }
    checksum += result.sample_windows;
    return sampled_s;
}

// ---------------------------------------------------------------------------
// Host metadata

const char *
compilerString()
{
#if defined(__clang__)
    return "clang " __VERSION__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** `git rev-parse --short HEAD`, or "unknown" outside a checkout. */
std::string
gitRevision()
{
    std::string rev = "unknown";
    if (FILE *pipe =
            popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64] = {};
        if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
            buf[std::strcspn(buf, "\r\n")] = '\0';
            if (buf[0] != '\0') {
                rev = buf;
            }
        }
        pclose(pipe);
    }
    return rev;
}

/**
 * Every simulation key figs 5-16 request at @p scale: the five-scheme
 * sweep over the two- and four-core groups (figs 5-10 and 14-16), the
 * Cooperative threshold sweep (figs 11-13) and all weighted-speedup
 * solo baselines — two ExperimentSpecs, deduplicated.
 */
std::vector<sim::RunKey>
figSweepKeys(const std::string &scale)
{
    api::ExperimentSpec schemes_spec;
    schemes_spec.layout = "none";
    schemes_spec.schemes = {"unmanaged", "fairshare", "cpe", "ucp",
                            "coop"};
    schemes_spec.groups = {"G2-*", "G4-*"};
    schemes_spec.scale = scale;

    api::ExperimentSpec threshold_spec;
    threshold_spec.layout = "none";
    threshold_spec.schemes = {"coop"};
    threshold_spec.groups = {"G2-*"};
    threshold_spec.thresholds = {0.0, 0.01, 0.05, 0.1, 0.2};
    threshold_spec.with_solo = false;
    threshold_spec.scale = scale;

    std::unordered_set<sim::RunKey, sim::RunKeyHash> seen;
    std::vector<sim::RunKey> keys;
    for (const api::ExperimentSpec *spec :
         {&schemes_spec, &threshold_spec}) {
        for (sim::RunKey &key : api::expandSpec(*spec)) {
            if (seen.insert(key).second) {
                keys.push_back(std::move(key));
            }
        }
    }
    return keys;
}

struct SweepTimes
{
    std::size_t runs = 0;
    /** Serial with the stream memo disabled: every run regenerates
     *  every stream, the pre-memo cost. */
    double no_memo_s = 0.0;
    /** Serial with a cold memo: distinct streams generated once,
     *  everything else replayed. */
    double serial_s = 0.0;
    /** Serial with every stream already memoized — the steady state
     *  every repeated sweep in one process (new scheme, another
     *  threshold) runs in. */
    double warm_s = 0.0;
    double parallel_s = 0.0;

    /** The sweep-level win of stream memoization: pre-memo cost vs
     *  the replay-everything steady state. */
    double memoSpeedup() const
    {
        return warm_s > 0.0 ? no_memo_s / warm_s : 0.0;
    }
};

/**
 * Serial with the memo off, serial with a cold memo, serial again
 * with the memo warm, and the parallel RunExecutor, all on the full
 * key set. The four cycle totals must agree — memoized, regenerated
 * and pool-scheduled runs are the same simulations.
 */
SweepTimes
benchExecutorSweep(const std::string &scale, std::uint64_t &checksum)
{
    const std::vector<sim::RunKey> keys = figSweepKeys(scale);
    SweepTimes times;
    times.runs = keys.size();

    std::uint64_t no_memo_sum = 0;
    {
        sim::StreamCache::instance().configure({false, 0});
        const auto t0 = Clock::now();
        for (const sim::RunKey &key : keys) {
            no_memo_sum += sim::executeRun(key).total_cycles;
        }
        times.no_memo_s = seconds(t0, Clock::now());
    }

    std::uint64_t serial_sum = 0;
    {
        sim::StreamCache::instance().configure({});
        sim::StreamCache::instance().clear();
        const auto t0 = Clock::now();
        for (const sim::RunKey &key : keys) {
            serial_sum += sim::executeRun(key).total_cycles;
        }
        times.serial_s = seconds(t0, Clock::now());
    }

    std::uint64_t warm_sum = 0;
    {
        const auto t0 = Clock::now();
        for (const sim::RunKey &key : keys) {
            warm_sum += sim::executeRun(key).total_cycles;
        }
        times.warm_s = seconds(t0, Clock::now());
    }

    std::uint64_t parallel_sum = 0;
    {
        auto &executor = sim::RunExecutor::instance();
        executor.clear();
        const auto t0 = Clock::now();
        executor.prefetch(keys);
        for (const sim::RunKey &key : keys) {
            parallel_sum += executor.run(key).total_cycles;
        }
        times.parallel_s = seconds(t0, Clock::now());
    }

    if (serial_sum != parallel_sum || serial_sum != no_memo_sum ||
        serial_sum != warm_sum) {
        std::fprintf(stderr,
                     "FATAL: no-memo/serial/warm/parallel cycle totals "
                     "differ (%llu / %llu / %llu / %llu)\n",
                     static_cast<unsigned long long>(no_memo_sum),
                     static_cast<unsigned long long>(serial_sum),
                     static_cast<unsigned long long>(warm_sum),
                     static_cast<unsigned long long>(parallel_sum));
        std::exit(1);
    }
    checksum += serial_sum;
    return times;
}

} // namespace

int
main(int argc, char **argv)
{
    // No kFlagStore: this bench times the executor itself, and a
    // store serving hits from disk would invalidate the serial vs.
    // parallel sweep comparison — reject the flag instead of
    // silently dropping it.
    const api::CliOptions cli =
        api::parseCli(argc, argv, api::kFlagScale | api::kFlagThreads,
                      "usage: micro_hot_loops [--scale=test|bench|"
                      "paper] [--full] [--threads=N]\n");
    const unsigned threads = api::applyCliThreads(cli);
    const unsigned host_cores = std::thread::hardware_concurrency();
    const char *scale_name = cli.scale_name.c_str();

    std::printf("# hot-path microbenchmarks (scale: %s, threads: %u, "
                "host cores: %u)\n",
                scale_name, threads, host_cores);

    std::uint64_t checksum = 0;
    const LookupTimes lookup = benchMaskedLookup(checksum);
    std::printf("masked lookup (bit-scan)   %8.2f ns/op\n",
                lookup.bitscan_ns);
    std::printf("masked lookup (linear ref) %8.2f ns/op\n",
                lookup.linear_ns);
    std::printf("masked victim (bit-scan)   %8.2f ns/op\n",
                lookup.victim_ns);

    const SliceHashTimes slice = benchSliceHash(checksum);
    std::printf("slice hash (mod)           %8.2f ns/op\n",
                slice.mod_ns);
    std::printf("slice hash (xor fold)      %8.2f ns/op\n",
                slice.xor_ns);
    std::printf("banked lookup (4 slices)   %8.2f ns/op\n",
                slice.banked_lookup_ns);

    const double umon_ns = benchUmonAccess(checksum);
    std::printf("UMON access (full ATD)     %8.2f ns/op\n", umon_ns);

    const DriverCost driver = benchDriverCost(checksum);
    std::printf("driver+dispatch (per-op)   %8.2f ns/step "
                "(loop %.2f - baseline %.2f)\n",
                driver.peropNs(), driver.perop_loop_ns,
                driver.baseline_ns);
    std::printf("driver+dispatch (batched)  %8.2f ns/step "
                "(%.2fx less, quantum avg %.2f ops)\n",
                driver.batchedNs(),
                driver.batchedNs() > 0.0
                    ? driver.peropNs() / driver.batchedNs()
                    : 0.0,
                driver.quantum_avg_ops);

    const ReplayCost replay = benchReplayCost(checksum);
    std::printf("op production (replay)     %8.2f ns/op "
                "(loop %.2f - baseline %.2f)\n",
                replay.replayNs(), replay.replay_loop_ns,
                replay.baseline_ns);
    std::printf("op production (generate)   %8.2f ns/op\n",
                replay.generateNs());

    const MemoCost memo = benchStreamMemo(checksum);
    std::printf("stream memo (cold)         %8.2f ns/op "
                "(generate + encode, loop %.2f - baseline %.2f)\n",
                memo.coldNs(), memo.cold_loop_ns, memo.baseline_ns);
    std::printf("stream memo (warm)         %8.2f ns/op "
                "(CI bounds it by 2x replay %.2f)\n",
                memo.warmNs(), replay.replayNs());

    const SingleRun single = benchSingleRun(checksum);
    std::printf("single run coop/G4-1 bench: batched %.3fs, per-op "
                "%.3fs, %llu steps, quantum avg %.2f ops "
                "(bit-identical)\n",
                single.batched_s, single.perop_s,
                static_cast<unsigned long long>(single.steps),
                single.quantum_avg_ops);

    const double sampled_run_s = benchSampledRun(checksum);
    const double sampling_speedup =
        sampled_run_s > 0.0 ? single.batched_s / sampled_run_s : 0.0;
    std::printf("sampled run coop/G4-1 bench (setop): %.3fs, "
                "%.2fx vs exact\n",
                sampled_run_s, sampling_speedup);

    const SweepTimes sweep = benchExecutorSweep(cli.scale_name, checksum);
    const double speedup =
        sweep.parallel_s > 0.0 ? sweep.serial_s / sweep.parallel_s : 0.0;
    // The executor can only beat the serial loop when the host gives
    // its worker pool more than one core to spread across; a 1-core
    // host (or --threads=1) legitimately reports ~1x, and asserting a
    // parallel win there would fail the bench for the wrong reason.
    // The JSON records the host-derived expectation next to the
    // measurement; no CI step asserts it.
    const unsigned worker_cores = std::min(
        sim::RunExecutor::instance().threads(),
        host_cores > 0 ? host_cores : 1u);
    const double sweep_expected_min = worker_cores >= 2 ? 1.2 : 0.8;
    const char *sweep_note =
        worker_cores >= 2
            ? "parallel executor expected to beat the serial sweep"
            : "1 worker core: serial and executor sweeps are "
              "equivalent, speedup ~1.0 expected";
    std::printf("fig05-16 sweep: %zu runs, no-memo %.2fs, cold-memo "
                "%.2fs, warm-memo %.2fs (memo %.2fx), executor(%u "
                "threads) %.2fs, speedup %.2fx (expected >= %.2f; "
                "%s)\n",
                sweep.runs, sweep.no_memo_s, sweep.serial_s,
                sweep.warm_s, sweep.memoSpeedup(),
                sim::RunExecutor::instance().threads(), sweep.parallel_s,
                speedup, sweep_expected_min, sweep_note);
    std::printf("# checksum %llu\n",
                static_cast<unsigned long long>(checksum));

    FILE *json = std::fopen("BENCH_hotpath.json", "w");
    if (json != nullptr) {
        std::fprintf(
            json,
            "{\n"
            "  \"scale\": \"%s\",\n"
            "  \"host_cores\": %u,\n"
            "  \"compiler\": \"%s\",\n"
            "  \"git_rev\": \"%s\",\n"
            "  \"executor_threads\": %u,\n"
            "  \"masked_lookup_bitscan_ns\": %.3f,\n"
            "  \"masked_lookup_linear_ns\": %.3f,\n"
            "  \"masked_victim_ns\": %.3f,\n"
            "  \"slice_hash_mod_ns\": %.3f,\n"
            "  \"slice_hash_ns\": %.3f,\n"
            "  \"banked_lookup_ns\": %.3f,\n"
            "  \"umon_access_ns\": %.3f,\n"
            "  \"run_step_ns\": %.3f,\n"
            "  \"run_step_perop_ns\": %.3f,\n"
            "  \"run_step_baseline_ns\": %.3f,\n"
            "  \"replay_step_ns\": %.3f,\n"
            "  \"generate_step_ns\": %.3f,\n"
            "  \"stream_memo_cold_ns\": %.3f,\n"
            "  \"stream_memo_warm_ns\": %.3f,\n"
            "  \"single_run_s\": %.3f,\n"
            "  \"single_run_perop_s\": %.3f,\n"
            "  \"single_run_steps\": %llu,\n"
            "  \"quantum_avg_ops\": %.3f,\n"
            "  \"sampled_run_s\": %.3f,\n"
            "  \"sampling_speedup\": %.3f,\n"
            "  \"sweep_runs\": %zu,\n"
            "  \"sweep_no_memo_s\": %.3f,\n"
            "  \"sweep_memo_warm_s\": %.3f,\n"
            "  \"sweep_memo_speedup\": %.3f,\n"
            "  \"sweep_serial_s\": %.3f,\n"
            "  \"sweep_parallel_s\": %.3f,\n"
            "  \"sweep_speedup\": %.3f,\n"
            "  \"sweep_speedup_expected_min\": %.3f,\n"
            "  \"sweep_speedup_note\": \"%s\"\n"
            "}\n",
            scale_name, host_cores, compilerString(),
            gitRevision().c_str(),
            sim::RunExecutor::instance().threads(),
            lookup.bitscan_ns, lookup.linear_ns, lookup.victim_ns,
            slice.mod_ns, slice.xor_ns, slice.banked_lookup_ns,
            umon_ns, driver.batchedNs(), driver.peropNs(),
            driver.baseline_ns, replay.replayNs(), replay.generateNs(),
            memo.coldNs(), memo.warmNs(),
            single.batched_s, single.perop_s,
            static_cast<unsigned long long>(single.steps),
            single.quantum_avg_ops, sampled_run_s, sampling_speedup,
            sweep.runs, sweep.no_memo_s, sweep.warm_s,
            sweep.memoSpeedup(), sweep.serial_s,
            sweep.parallel_s, speedup, sweep_expected_min, sweep_note);
        std::fclose(json);
        std::printf("# wrote BENCH_hotpath.json\n");
    }
    return 0;
}
