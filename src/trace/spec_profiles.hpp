/**
 * @file
 * Synthetic profiles standing in for the 19 SPEC CPU2006 C/C++
 * benchmarks of the paper's Table 3.
 *
 * Each profile is calibrated so that, when run solo on the paper's
 * two-core LLC organisation (2 MB, 8-way), its LLC misses per kilo
 * instruction land near the paper's Table 3 figure, and so that its
 * miss-vs-ways utility curve matches the qualitative behaviour the
 * paper describes (streamers gain nothing from extra ways; thrashers
 * such as gobmk/sjeng want many ways; astar/bzip2/gcc/povray change
 * appetite across phases; see `specs/table3.spec`).
 */

#ifndef COOPSIM_TRACE_SPEC_PROFILES_HPP
#define COOPSIM_TRACE_SPEC_PROFILES_HPP

#include <string>
#include <vector>

#include "trace/generator.hpp"

namespace coopsim::trace
{

/** MPKI class from the paper's Table 3. */
enum class MpkiClass
{
    High,   //!< MPKI > 5
    Medium, //!< 1 < MPKI < 5
    Low,    //!< MPKI < 1
};

/** Profile of @p name; fatal() on unknown benchmark names. */
const AppProfile &specProfile(const std::string &name);

/** All 19 benchmark names, in Table 3 order. */
const std::vector<std::string> &allSpecApps();

/** The paper's Table 3 classification for @p name. */
MpkiClass mpkiClassOf(const std::string &name);

/** Class boundary helper: classifies a measured MPKI value. */
MpkiClass classifyMpki(double mpki);

/** Printable class name. */
const char *mpkiClassName(MpkiClass cls);

} // namespace coopsim::trace

#endif // COOPSIM_TRACE_SPEC_PROFILES_HPP
