/**
 * @file
 * RAP/WAP access-permission registers (paper Section 2.2).
 *
 * Each LLC way carries two registers with one bit per core:
 *  - RAP (read access permission): the core may probe/read the way;
 *  - WAP (write access permission): the core may write/fill the way.
 *
 * Legal per-way states (enforced as invariants):
 *  - Off:        RAP = WAP = 0 for every core; the way is power-gated.
 *  - Steady:     exactly one core has RAP and the same core has WAP.
 *  - Transition: one core (the recipient) has RAP+WAP and exactly one
 *                other core (the donor) has RAP only.
 *  - Draining:   exactly one core (the donor) has RAP only and nobody
 *                has WAP; the way powers off when the drain completes.
 *
 * WAP ⊆ RAP per core/way always holds: write permission implies read
 * permission.
 */

#ifndef COOPSIM_LLC_PERMISSIONS_HPP
#define COOPSIM_LLC_PERMISSIONS_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace coopsim::llc
{

/** Bitmap over cores (bit c = core c); 64-bit for the 32/64-core
 *  banked topologies. */
using CoreMask = std::uint64_t;

/** Classification of a way's permission state. */
enum class WayState : std::uint8_t
{
    Off,
    Steady,
    Transition,
    Draining,
};

/**
 * The per-way RAP/WAP register file plus way power state.
 */
class PermissionFile
{
  public:
    PermissionFile(std::uint32_t ways, std::uint32_t cores);

    /** Grants steady full ownership of @p way to @p core (power on). */
    void setOwner(WayId way, CoreId core);

    /** Begins a transfer: recipient gains RAP+WAP, donor keeps RAP. */
    void beginTransfer(WayId way, CoreId donor, CoreId recipient);

    /** Begins a drain: donor keeps RAP, loses WAP; nobody else set. */
    void beginDrain(WayId way, CoreId donor);

    /** Removes @p core's read permission (end of its donor role). */
    void clearRead(WayId way, CoreId core);

    /** Powers the way off; requires RAP = WAP = 0. */
    void powerOff(WayId way);

    /** True when the way is powered. */
    bool powered(WayId way) const { return (powered_ >> way) & 1u; }

    bool canRead(WayId way, CoreId core) const
    {
        return (rap_[way] >> core) & 1u;
    }

    bool canWrite(WayId way, CoreId core) const
    {
        return (wap_[way] >> core) & 1u;
    }

    // The four per-core way masks are queried on every LLC access but
    // change only when a partitioning decision mutates the registers, so
    // they are maintained as cached bitmaps (rebuilt on each mutation)
    // rather than recomputed from RAP/WAP per access.

    /** Mask of ways @p core may probe (RAP set). */
    std::uint64_t readMask(CoreId core) const { return read_mask_[core]; }

    /** Ways in readMask(@p core): the probe count of its accesses. */
    std::uint32_t readCount(CoreId core) const
    {
        return read_count_[core];
    }

    /** Mask of ways @p core may fill/write (WAP set). */
    std::uint64_t writeMask(CoreId core) const
    {
        return write_mask_[core];
    }

    /** Ways where @p core is the donor (RAP without WAP). */
    std::uint64_t donatingMask(CoreId core) const
    {
        return donating_mask_[core];
    }

    /**
     * Ways @p core is receiving: core has WAP but another core still
     * has RAP.
     */
    std::uint64_t receivingMask(CoreId core) const
    {
        return receiving_mask_[core];
    }

    /** The donor of @p way (unique core with RAP and no WAP). */
    CoreId donorOf(WayId way) const;

    /** The core with WAP on @p way, or kNoCore. */
    CoreId writerOf(WayId way) const;

    /** Classifies the way's permission state. */
    WayState state(WayId way) const;

    /** Mask of powered-off ways. */
    std::uint64_t offMask() const { return ~powered_ & all_ways_; }

    /** Number of powered ways. */
    std::uint32_t poweredCount() const { return powered_count_; }

    std::uint32_t ways() const
    {
        return static_cast<std::uint32_t>(rap_.size());
    }
    std::uint32_t cores() const { return cores_; }

    /** Bits of storage the RAP and WAP registers cost (Table 1):
     *  ways x cores each. */
    std::uint64_t storageBits() const
    {
        return 2 * static_cast<std::uint64_t>(ways()) * cores_;
    }

    /**
     * Validates every way against the legal-state catalogue above.
     * Panics on violation — called by tests and after every epoch.
     */
    void checkInvariants() const;

  private:
    /** Rebuilds every cached per-core mask from RAP/WAP state. */
    void rebuildMasks();

    std::uint32_t cores_;
    /** Bit w set for every way w of the file. */
    std::uint64_t all_ways_;
    std::vector<CoreMask> rap_;
    std::vector<CoreMask> wap_;
    /** Power state, bit w = way w. Every LLC access integrates leakage
     *  over poweredCount(), so the count is cached beside the mask
     *  (the build has no popcount instruction). */
    std::uint64_t powered_ = 0;
    std::uint32_t powered_count_ = 0;
    std::vector<std::uint64_t> read_mask_;
    std::vector<std::uint32_t> read_count_;
    std::vector<std::uint64_t> write_mask_;
    std::vector<std::uint64_t> donating_mask_;
    std::vector<std::uint64_t> receiving_mask_;
};

} // namespace coopsim::llc

#endif // COOPSIM_LLC_PERMISSIONS_HPP
