/**
 * @file
 * Error and status reporting in the gem5 style.
 *
 * panic()  — an internal invariant was violated: a bug in this library.
 *            Aborts so a debugger/core dump is available.
 * fatal()  — the user asked for something impossible (bad configuration,
 *            invalid arguments). Exits with status 1.
 * warn()   — something is suspicious but the simulation can continue.
 * inform() — plain status output.
 */

#ifndef COOPSIM_COMMON_LOGGING_HPP
#define COOPSIM_COMMON_LOGGING_HPP

#include <sstream>
#include <string>

namespace coopsim
{

namespace detail
{

/** Formats "a=1 b=2" style messages from a parameter pack. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Test hook: when set, fatal() throws instead of exiting. */
void setThrowOnFatal(bool enable);
bool throwOnFatal();

/** True once a fatal() has begun exiting the process. Exit-time code
 *  that would wait on other threads checks it: the failing thread may
 *  be one of them, and the run it abandoned never finishes. */
bool fatalExiting();

} // namespace detail

/** Thrown by fatal() when the test hook is enabled. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Enable/disable throwing fatal errors (used by the test suite). */
void setThrowOnFatal(bool enable);

/** Suppress or restore warn()/inform() output (quiet benches). */
void setQuiet(bool quiet);

} // namespace coopsim

#define COOPSIM_PANIC(...)                                                   \
    ::coopsim::detail::panicImpl(__FILE__, __LINE__,                         \
                                 ::coopsim::detail::concat(__VA_ARGS__))

#define COOPSIM_FATAL(...)                                                   \
    ::coopsim::detail::fatalImpl(__FILE__, __LINE__,                         \
                                 ::coopsim::detail::concat(__VA_ARGS__))

#define COOPSIM_WARN(...)                                                    \
    ::coopsim::detail::warnImpl(::coopsim::detail::concat(__VA_ARGS__))

#define COOPSIM_INFORM(...)                                                  \
    ::coopsim::detail::informImpl(::coopsim::detail::concat(__VA_ARGS__))

/** Invariant check that survives NDEBUG: used for architectural state. */
#define COOPSIM_ASSERT(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            COOPSIM_PANIC("assertion failed: ", #cond, " ", __VA_ARGS__);    \
        }                                                                    \
    } while (0)

#endif // COOPSIM_COMMON_LOGGING_HPP
