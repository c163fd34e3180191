#include "llc/permissions.hpp"

#include <bit>

#include "common/logging.hpp"

namespace coopsim::llc
{

PermissionFile::PermissionFile(std::uint32_t ways, std::uint32_t cores)
    : cores_(cores),
      all_ways_(ways >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << ways) - 1),
      rap_(ways, 0), wap_(ways, 0), read_mask_(cores, 0),
      read_count_(cores, 0), write_mask_(cores, 0), donating_mask_(cores, 0),
      receiving_mask_(cores, 0)
{
    COOPSIM_ASSERT(ways > 0 && ways <= 64, "ways must be in [1, 64]");
    COOPSIM_ASSERT(cores > 0 && cores <= 64, "cores must be in [1, 64]");
}

void
PermissionFile::rebuildMasks()
{
    for (std::uint32_t c = 0; c < cores_; ++c) {
        const CoreMask self = CoreMask{1} << c;
        std::uint64_t read = 0;
        std::uint32_t reads = 0;
        std::uint64_t write = 0;
        std::uint64_t donating = 0;
        std::uint64_t receiving = 0;
        for (std::uint32_t w = 0; w < ways(); ++w) {
            const std::uint64_t bit = std::uint64_t{1} << w;
            if (rap_[w] & self) {
                read |= bit;
                ++reads;
                if (!(wap_[w] & self)) {
                    donating |= bit;
                }
            }
            if (wap_[w] & self) {
                write |= bit;
                if ((rap_[w] & ~self) != 0) {
                    receiving |= bit;
                }
            }
        }
        read_mask_[c] = read;
        read_count_[c] = reads;
        write_mask_[c] = write;
        donating_mask_[c] = donating;
        receiving_mask_[c] = receiving;
    }
}

void
PermissionFile::setOwner(WayId way, CoreId core)
{
    COOPSIM_ASSERT(way < ways() && core < cores_, "setOwner out of range");
    rap_[way] = CoreMask{1} << core;
    wap_[way] = CoreMask{1} << core;
    if (!powered(way)) {
        powered_ |= std::uint64_t{1} << way;
        ++powered_count_;
    }
    rebuildMasks();
}

void
PermissionFile::beginTransfer(WayId way, CoreId donor, CoreId recipient)
{
    COOPSIM_ASSERT(way < ways(), "beginTransfer way out of range");
    COOPSIM_ASSERT(donor != recipient, "self transfer");
    COOPSIM_ASSERT(powered(way), "transfer of a powered-off way");
    COOPSIM_ASSERT(rap_[way] == (CoreMask{1} << donor) &&
                       wap_[way] == (CoreMask{1} << donor),
                   "transfer source must be in steady state");
    rap_[way] |= CoreMask{1} << recipient;
    wap_[way] = CoreMask{1} << recipient;
    rebuildMasks();
}

void
PermissionFile::beginDrain(WayId way, CoreId donor)
{
    COOPSIM_ASSERT(way < ways(), "beginDrain way out of range");
    COOPSIM_ASSERT(rap_[way] == (CoreMask{1} << donor) &&
                       wap_[way] == (CoreMask{1} << donor),
                   "drain source must be in steady state");
    wap_[way] = 0;
    rebuildMasks();
}

void
PermissionFile::clearRead(WayId way, CoreId core)
{
    COOPSIM_ASSERT(way < ways() && core < cores_, "clearRead range");
    rap_[way] &= ~(CoreMask{1} << core);
    rebuildMasks();
}

void
PermissionFile::powerOff(WayId way)
{
    COOPSIM_ASSERT(way < ways(), "powerOff way out of range");
    COOPSIM_ASSERT(rap_[way] == 0 && wap_[way] == 0,
                   "powering off a way with live permissions");
    if (powered(way)) {
        powered_ &= ~(std::uint64_t{1} << way);
        --powered_count_;
    }
}

CoreId
PermissionFile::donorOf(WayId way) const
{
    const CoreMask readers_only = rap_[way] & ~wap_[way];
    if (readers_only == 0) {
        return kNoCore;
    }
    // A single-bit test, not a popcount: the build has no popcount
    // instruction, and participate() asks for donors on every access
    // to a receiving way.
    COOPSIM_ASSERT((readers_only & (readers_only - 1)) == 0,
                   "multiple donors on one way");
    return static_cast<CoreId>(std::countr_zero(readers_only));
}

CoreId
PermissionFile::writerOf(WayId way) const
{
    if (wap_[way] == 0) {
        return kNoCore;
    }
    COOPSIM_ASSERT((wap_[way] & (wap_[way] - 1)) == 0,
                   "multiple writers on one way");
    return static_cast<CoreId>(std::countr_zero(wap_[way]));
}

WayState
PermissionFile::state(WayId way) const
{
    const CoreMask rap = rap_[way];
    const CoreMask wap = wap_[way];
    if (rap == 0 && wap == 0) {
        return powered(way) ? WayState::Draining : WayState::Off;
    }
    if (wap == 0) {
        return WayState::Draining;
    }
    if (rap == wap) {
        return WayState::Steady;
    }
    return WayState::Transition;
}

void
PermissionFile::checkInvariants() const
{
    for (std::uint32_t w = 0; w < ways(); ++w) {
        const CoreMask rap = rap_[w];
        const CoreMask wap = wap_[w];
        COOPSIM_ASSERT((wap & ~rap) == 0,
                       "WAP without RAP on way ", w);
        COOPSIM_ASSERT(std::popcount(wap) <= 1,
                       "more than one writer on way ", w);
        if (!powered(w)) {
            COOPSIM_ASSERT(rap == 0 && wap == 0,
                           "permissions on powered-off way ", w);
            continue;
        }
        // Powered: at most one reader beyond the writer.
        COOPSIM_ASSERT(std::popcount(rap) <= 2,
                       "more than two readers on way ", w);
        if (std::popcount(rap) == 2) {
            COOPSIM_ASSERT(std::popcount(wap) == 1,
                           "two readers but no writer on way ", w);
        }
    }
    COOPSIM_ASSERT(std::popcount(powered_) == static_cast<int>(powered_count_),
                   "cached powered-way count out of date");
    for (std::uint32_t c = 0; c < cores_; ++c) {
        COOPSIM_ASSERT(std::popcount(read_mask_[c]) ==
                           static_cast<int>(read_count_[c]),
                       "cached probe count of core ", c, " out of date");
    }
}

} // namespace coopsim::llc
