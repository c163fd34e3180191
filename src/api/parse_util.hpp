/**
 * @file
 * Strict numeric parsing/formatting shared by the spec encoding
 * (api/spec.cpp) and the command-line parser (api/cli.cpp): one
 * implementation so the two surfaces cannot drift.
 */

#ifndef COOPSIM_API_PARSE_UTIL_HPP
#define COOPSIM_API_PARSE_UTIL_HPP

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"

namespace coopsim::api::detail
{

/** Whole-string strtod; false on empty input, trailing garbage or
 *  overflow to infinity (a corrupt "1e999" must not load as inf). */
inline bool
tryParseDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
        return false;
    }
    if (errno == ERANGE && std::isinf(value)) {
        return false;
    }
    out = value;
    return true;
}

/** Whole-string strtoull; false on empty input, garbage, a negative
 *  sign (strtoull would silently wrap it) or overflow. */
inline bool
tryParseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text[0] == '-') {
        return false;
    }
    char *end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
        return false;
    }
    out = value;
    return true;
}

/** tryParseUint for a 32-bit field; also false above UINT32_MAX, which
 *  a plain cast would silently wrap ("4294967298" must not read as 2). */
inline bool
tryParseUint32(const std::string &text, std::uint32_t &out)
{
    std::uint64_t value = 0;
    if (!tryParseUint(text, value) || value > UINT32_MAX) {
        return false;
    }
    out = static_cast<std::uint32_t>(value);
    return true;
}

/** Whitespace-separated tokens of @p text (spec axes, store lines). */
inline std::vector<std::string>
splitWords(const std::string &text)
{
    std::vector<std::string> words;
    std::istringstream stream(text);
    std::string word;
    while (stream >> word) {
        words.push_back(word);
    }
    return words;
}

/** Whole-string strtod; fatal (naming @p what) on trailing garbage. */
inline double
parseDouble(const std::string &text, const char *what)
{
    double value = 0.0;
    if (!tryParseDouble(text, value)) {
        COOPSIM_FATAL("invalid ", what, " value '", text, "'");
    }
    return value;
}

/** Whole-string strtoull; fatal (naming @p what) on garbage. */
inline std::uint64_t
parseUint(const std::string &text, const char *what)
{
    std::uint64_t value = 0;
    if (!tryParseUint(text, value)) {
        COOPSIM_FATAL("invalid ", what, " value '", text, "'");
    }
    return value;
}

/** tryParseUint32; fatal (naming @p what) on garbage or overflow. */
inline std::uint32_t
parseUint32(const std::string &text, const char *what)
{
    std::uint32_t value = 0;
    if (!tryParseUint32(text, value)) {
        COOPSIM_FATAL("invalid ", what, " value '", text,
                      "' (expected an integer in 0..4294967295)");
    }
    return value;
}

/** Shortest decimal encoding that parses back to exactly @p value. */
inline std::string
fmtDouble(double value)
{
    char buf[64];
    for (const int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value) {
            break;
        }
    }
    return buf;
}

} // namespace coopsim::api::detail

#endif // COOPSIM_API_PARSE_UTIL_HPP
