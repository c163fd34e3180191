#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace coopsim
{

namespace
{

std::atomic<bool> gThrowOnFatal{false};
std::atomic<bool> gQuiet{false};
std::atomic<bool> gFatalExiting{false};
thread_local bool tFatalExiting = false;

} // namespace

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (gThrowOnFatal.load()) {
        throw FatalError(msg);
    }
    // A fatal can fire on any thread, executor workers included, and
    // several workers can fail the same way at once. Only the first
    // caller exits — exit() must never run twice concurrently — and a
    // later one parks until that exit ends the process. A fatal from
    // exit-time code on the exiting thread itself ends it at once.
    if (gFatalExiting.exchange(true)) {
        if (tFatalExiting) {
            std::_Exit(1);
        }
        for (;;) {
            std::this_thread::sleep_for(std::chrono::hours(1));
        }
    }
    tFatalExiting = true;
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

bool
fatalExiting()
{
    return gFatalExiting.load();
}

void
warnImpl(const std::string &msg)
{
    if (!gQuiet.load()) {
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
    }
}

void
informImpl(const std::string &msg)
{
    if (!gQuiet.load()) {
        std::fprintf(stdout, "info: %s\n", msg.c_str());
    }
}

void
setThrowOnFatal(bool enable)
{
    gThrowOnFatal.store(enable);
}

bool
throwOnFatal()
{
    return gThrowOnFatal.load();
}

} // namespace detail

void
setThrowOnFatal(bool enable)
{
    detail::setThrowOnFatal(enable);
}

void
setQuiet(bool quiet)
{
    gQuiet.store(quiet);
}

} // namespace coopsim
