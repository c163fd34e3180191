/**
 * @file
 * Synthetic workload generation.
 *
 * The paper drives its simulator with SPEC CPU2006 reference traces,
 * which are not redistributable. We substitute parameterised synthetic
 * streams whose LLC behaviour is controlled *by construction* (see
 * DESIGN.md, Substitutions): partitioning decisions depend only on each
 * application's miss-vs-ways utility curve, its access rate and its
 * write ratio, and the generator sets all three directly.
 *
 * Mechanism: the generator keeps, per LLC set, a recency list of the
 * blocks it has touched there (as 32-bit block numbers; an address is
 * composed when an op is emitted). Each generated access either
 *  - touches a *new* block (probability `miss_prob`: streaming /
 *    compulsory-miss traffic that misses under any allocation), or
 *  - re-touches the block at recency rank r of a random set, drawn
 *    from the profile's rank distribution. Under LRU, a re-touch at
 *    rank r hits iff the application effectively holds > r ways in
 *    that set, so the rank pmf *is* the utility curve.
 *
 * Phase behaviour (the paper singles out astar, bzip2, gcc and povray
 * as changing their cache appetite) is modelled by alternating between
 * two phases with different rank distributions.
 */

#ifndef COOPSIM_TRACE_GENERATOR_HPP
#define COOPSIM_TRACE_GENERATOR_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/op_stream.hpp"

namespace coopsim::trace
{

/** Deepest recency rank the generator models (> max associativity). */
inline constexpr std::uint32_t kMaxRank = 24;

/** Distribution of one phase's accesses over recency ranks. */
struct RankPmf
{
    /** Probability of touching a brand-new block (always misses). */
    double miss_prob = 0.0;
    /** rank[r] = probability of re-touching recency rank r. The
     *  remainder (1 - miss_prob - sum) re-touches rank 0. */
    std::array<double, kMaxRank> rank{};
};

/** One execution phase of an application. */
struct AppPhase
{
    /** LLC accesses per kilo-instruction (post-L1 filtering). */
    double apki = 10.0;
    RankPmf pmf;
};

/** A complete synthetic application profile. */
struct AppProfile
{
    std::string name;
    /** Fraction of LLC accesses that are writes (L1 writebacks). */
    double write_fraction = 0.3;
    /** The paper's Table 3 MPKI figure, for reporting. */
    double table3_mpki = 0.0;
    AppPhase primary;
    /** Optional alternate phase; empty name on primary-only apps. */
    AppPhase secondary;
    /**
     * Instructions per phase at *paper scale* (5 M-cycle epochs);
     * 0 = no phase behaviour. The simulation driver rescales this with
     * the epoch length so a phase spans the same number of partitioning
     * epochs at every RunScale.
     */
    InstCount phase_insts = 0;

    bool hasPhases() const { return phase_insts != 0; }

    /**
     * Analytic miss probability when holding @p ways ways (the
     * expected utility curve, averaged over phases).
     */
    double expectedMissRatio(std::uint32_t ways) const;
};

/** Geometry the generator must agree on with the LLC. */
struct StreamGeometry
{
    std::uint32_t llc_sets = 4096;
    std::uint32_t block_bytes = 64;

    bool operator==(const StreamGeometry &) const = default;
};

/**
 * The synthetic operation stream (L1-filtered; see core/op_stream.hpp).
 */
class SyntheticStream final : public core::OpStream
{
  public:
    /**
     * @param profile  Application behaviour.
     * @param geometry Must match the LLC the stream will run against.
     * @param space    Address-space tag (distinct per co-running app,
     *                 as the paper's multiprogrammed workloads have
     *                 disjoint physical footprints).
     * @param seed     Determinism seed.
     */
    SyntheticStream(const AppProfile &profile,
                    const StreamGeometry &geometry, std::uint32_t space,
                    std::uint64_t seed);

    /**
     * Batch generation without per-op virtual dispatch: one call fills
     * the core model's op ring buffer (see OpStream::nextBatch). The
     * op sequence does not depend on the batch sizes.
     */
    std::size_t nextBatch(core::MemOp *out, std::size_t max) override;

    /** Instructions generated so far (gap + memory ops). */
    InstCount generatedInsts() const { return generated_insts_; }

  private:
    core::MemOp generate();
    /** Re-derives the cached phase state from generated_insts_. */
    void refreshPhase();
    /** Takes the next block number (recency-list form: see lists_). */
    std::uint32_t newBlock();
    /** The address of @p block in @p set. */
    Addr
    addrOf(SetId set, std::uint32_t block) const
    {
        return space_base_ | slicer_.compose(block, set);
    }
    /** Moves @p block to rank 0 of @p set's recency list. */
    void touch(SetId set, std::uint32_t block);
    /** Moves the block at @p rank of @p set's list to rank 0: touch()
     *  of that block without its search (list entries are distinct). */
    void promote(SetId set, std::uint32_t rank);

    AppProfile profile_;
    StreamGeometry geometry_;
    AddrSlicer slicer_;
    Rng rng_;
    Addr space_base_;
    std::uint64_t next_block_ = 0;

    /**
     * Per-set recency lists, most recent first, of block numbers with
     * the bits the address-space tag also sets cleared — two entries
     * are equal iff their addresses are, so the lists behave exactly
     * like lists of addresses at half the memory (every memoized
     * stream keeps its generator alive). A composed address is never
     * 0 (the space tag is not), which generate() uses as "no block
     * found yet".
     */
    std::vector<std::array<std::uint32_t, kMaxRank + 1>> lists_;
    std::vector<std::uint8_t> list_sizes_;

    /** What a phase's ops are drawn from. */
    struct PhaseDraw
    {
        /** Class distribution: [new, rank0, rank1, ...]. */
        GuidedCdf<kMaxRank + 1> classes;
        /** Gap-draw success probability and its cached log1p(-p) (the
         *  divisor of the geometric draw, constant per phase — no
         *  per-op transcendental). */
        double gap_p = 1.0;
        double gap_log1p = 0.0;
    };
    /** Primary, then secondary phase. */
    std::array<PhaseDraw, 2> phases_;

    /**
     * Cached phase selection: the per-op `generated_insts_ /
     * phase_insts` division is paid only when the instruction count
     * crosses phase_switch_insts_ (the precomputed end of the current
     * phase), not on every generated op. An index, not a pointer, so
     * a copy draws from its own phases.
     */
    std::uint32_t active_phase_ = 0;
    InstCount phase_switch_insts_ = 0;

    InstCount generated_insts_ = 0;
};

/** Builds the per-class CDF of a phase (index 0 = new block). */
std::array<double, kMaxRank + 1> buildClassCdf(const RankPmf &pmf);

} // namespace coopsim::trace

#endif // COOPSIM_TRACE_GENERATOR_HPP
