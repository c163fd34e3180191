/**
 * @file
 * Fundamental scalar types shared by every subsystem.
 *
 * The simulator uses explicit fixed-width types for anything that is an
 * architectural quantity (addresses, cycle counts, core identifiers) so
 * that overflow behaviour is well defined and intent is visible at use
 * sites.
 */

#ifndef COOPSIM_COMMON_TYPES_HPP
#define COOPSIM_COMMON_TYPES_HPP

#include <cstdint>
#include <limits>

namespace coopsim
{

/** Physical byte address. */
using Addr = std::uint64_t;

/** Simulated clock cycle. The simulation clock is global and monotone. */
using Cycle = std::uint64_t;

/** Number of cycles between two events. */
using Tick = std::uint64_t;

/** Index of a core within the CMP (0-based). */
using CoreId = std::uint32_t;

/** Index of a cache way within a set (0-based). */
using WayId = std::uint32_t;

/** Index of a cache set (0-based). */
using SetId = std::uint32_t;

/** Instruction count. */
using InstCount = std::uint64_t;

/** Sentinel: "no core". */
inline constexpr CoreId kNoCore = std::numeric_limits<CoreId>::max();

/** Sentinel: "no way". */
inline constexpr WayId kNoWay = std::numeric_limits<WayId>::max();

/** Sentinel: "never" / unreachable cycle. */
inline constexpr Cycle kCycleMax = std::numeric_limits<Cycle>::max();

/** Sentinel: "no instruction bound". */
inline constexpr InstCount kInstMax = std::numeric_limits<InstCount>::max();

/** Kind of memory access issued by a core. */
enum class AccessType : std::uint8_t
{
    Read,
    Write,
};

/** Outcome of a cache lookup. */
enum class AccessResult : std::uint8_t
{
    Hit,
    Miss,
};

/** Returns true if the access dirties the line it touches. */
constexpr bool
isWrite(AccessType type)
{
    return type == AccessType::Write;
}

} // namespace coopsim

#endif // COOPSIM_COMMON_TYPES_HPP
