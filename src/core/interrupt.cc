#include "core/interrupt.hh"

#include <csignal>

#include <atomic>

namespace diablo {
namespace core {

namespace {

/** 0 = no request; otherwise the first cause to arrive (signo or
 *  negative kCause*).  Lock-free, so safe to store from a handler. */
std::atomic<int> g_cause{0};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void
interruptHandler(int signo)
{
    int expected = 0;
    if (!g_cause.compare_exchange_strong(expected, signo,
                                         std::memory_order_relaxed)) {
        // Second delivery: the cooperative path is already draining (or
        // wedged).  Restore the default disposition and re-raise so the
        // kernel terminates the process the ordinary way.
        std::signal(signo, SIG_DFL);
        std::raise(signo);
    }
}

} // namespace

void
installInterruptHandlers()
{
    struct sigaction sa;
    sa.sa_handler = interruptHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: a run blocked in I/O should see EINTR and reach
    // its interrupt poll promptly rather than resuming the syscall.
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

bool
interruptRequested()
{
    return g_cause.load(std::memory_order_relaxed) != 0;
}

int
interruptCause()
{
    return g_cause.load(std::memory_order_relaxed);
}

const char *
interruptCauseName()
{
    switch (interruptCause()) {
    case 0:
        return "none";
    case SIGINT:
        return "SIGINT";
    case SIGTERM:
        return "SIGTERM";
    case kCauseWatchdogDeadline:
        return "watchdog-deadline";
    case kCauseWatchdogStall:
        return "watchdog-stall";
    default:
        return "signal";
    }
}

void
requestInterrupt(int cause)
{
    int expected = 0;
    g_cause.compare_exchange_strong(expected, cause,
                                    std::memory_order_relaxed);
}

void
clearInterrupt()
{
    g_cause.store(0, std::memory_order_relaxed);
}

} // namespace core
} // namespace diablo
