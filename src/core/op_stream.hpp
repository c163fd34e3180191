/**
 * @file
 * The operation-stream interface between workload generators and the
 * core model.
 *
 * A stream yields an infinite sequence of memory operations, each
 * preceded by a number of non-memory instructions. Every stream is
 * L1-filtered: each operation is an access the private L1 missed, and
 * the core model sends it straight to the shared LLC. The synthetic
 * SPEC profiles are calibrated at that level because the paper's
 * mechanisms all live at the LLC (see DESIGN.md).
 *
 * A stream is a pure sequence: the ops produced depend only on the
 * stream's construction parameters, never on when or in what batch
 * sizes the consumer drains them. Both the batched driver (which
 * buffers ops ahead of execution) and `sim::StreamCache` (which
 * encodes a stream once and replays it into every run with the same
 * stream identity) rely on this; a stream whose output depended on
 * consumption timing would break bit-identity under either.
 */

#ifndef COOPSIM_CORE_OP_STREAM_HPP
#define COOPSIM_CORE_OP_STREAM_HPP

#include <cstddef>

#include "common/types.hpp"

namespace coopsim::core
{

/** One memory operation with its leading instruction gap. */
struct MemOp
{
    /** Non-memory instructions retired before this operation. */
    InstCount gap_insts = 0;
    /** Byte address accessed. */
    Addr addr = 0;
    AccessType type = AccessType::Read;
};

/** Infinite generator of memory operations. */
class OpStream
{
  public:
    virtual ~OpStream() = default;

    /**
     * Fills out[0, max) with the next @p max operations and returns
     * the count produced (always @p max: every stream in this tree is
     * infinite).
     *
     * The core model consumes operations through this interface so one
     * virtual dispatch covers a whole batch. Generation must not depend
     * on consumption timing: a stream is a pure sequence, and the core
     * buffers ops ahead of executing them.
     */
    virtual std::size_t nextBatch(MemOp *out, std::size_t max) = 0;

    /** The next operation: a one-op nextBatch(). Virtual only because
     *  perfbench's TimedStream overrides it. */
    virtual MemOp
    next()
    {
        MemOp op;
        nextBatch(&op, 1);
        return op;
    }
};

} // namespace coopsim::core

#endif // COOPSIM_CORE_OP_STREAM_HPP
