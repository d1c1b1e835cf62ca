#include "common/shutdown.hh"

#include <atomic>
#include <csignal>
#include <cstddef>
#include <mutex>

#include <unistd.h>

namespace unico::common {

namespace {

/** Signal number that requested shutdown (0 = none). Written only
 *  from the handler; sig_atomic_t keeps the store itself safe even
 *  where atomics are not lock-free. */
volatile std::sig_atomic_t g_signal = 0;

/**
 * Fan-out table: fixed-size array of lock-free token slots so the
 * signal handler can walk it without taking a lock. CancelToken is
 * all lock-free atomics, so cancelling one from a handler is safe.
 * Registration/unregistration are CAS/store on the slot pointers; a
 * token must outlive its unregistration (the handler may have loaded
 * the pointer just before the slot was cleared).
 */
constexpr std::size_t kFanoutSlots = 256;
std::atomic<CancelToken *> g_fanout[kFanoutSlots] = {};

void
fanOutShutdown()
{
    for (auto &slot : g_fanout) {
        CancelToken *token = slot.load(std::memory_order_acquire);
        if (token != nullptr)
            token->cancel(CancelReason::Signal);
    }
}

void
onShutdownSignal(int sig)
{
    if (shutdownToken().cancel(CancelReason::Signal)) {
        g_signal = sig;
        fanOutShutdown();
        return;
    }
    // Second signal while draining: the operator wants out *now*.
    // _exit is async-signal-safe; 128+signum is the shell convention.
    _exit(128 + sig);
}

/** Scope bookkeeping (normal-context only, never touched by the
 *  handler): refcount plus the sigactions to restore on teardown. */
std::mutex g_scope_mutex;
int g_scope_refs = 0;
struct sigaction g_prev_int;
struct sigaction g_prev_term;

void
installHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: interrupt blocking syscalls too
    sigaction(SIGINT, &sa, &g_prev_int);
    sigaction(SIGTERM, &sa, &g_prev_term);
}

void
restoreHandlers()
{
    sigaction(SIGINT, &g_prev_int, nullptr);
    sigaction(SIGTERM, &g_prev_term, nullptr);
}

} // namespace

CancelToken &
shutdownToken()
{
    static CancelToken token;
    return token;
}

ShutdownScope::ShutdownScope()
{
    std::lock_guard<std::mutex> lock(g_scope_mutex);
    if (g_scope_refs++ == 0)
        installHandlers();
}

ShutdownScope::~ShutdownScope()
{
    std::lock_guard<std::mutex> lock(g_scope_mutex);
    if (--g_scope_refs == 0) {
        restoreHandlers();
        // Re-arm for the next installation: a handled (or never
        // delivered) shutdown must not leak into a later scope.
        g_signal = 0;
        shutdownToken().reset();
    }
}

bool
registerShutdownToken(CancelToken &token)
{
    for (auto &slot : g_fanout) {
        CancelToken *expected = nullptr;
        if (slot.compare_exchange_strong(expected, &token,
                                         std::memory_order_acq_rel)) {
            // A signal that arrived before (or during) registration
            // must still reach this token.
            if (shutdownToken().cancelled())
                token.cancel(CancelReason::Signal);
            return true;
        }
    }
    return false;
}

void
unregisterShutdownToken(CancelToken &token)
{
    for (auto &slot : g_fanout) {
        CancelToken *expected = &token;
        slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel);
    }
}

std::size_t
shutdownFanoutSize()
{
    std::size_t n = 0;
    for (auto &slot : g_fanout)
        if (slot.load(std::memory_order_acquire) != nullptr)
            ++n;
    return n;
}

bool
shutdownRequested()
{
    return shutdownToken().cancelled();
}

int
shutdownSignal()
{
    return static_cast<int>(g_signal);
}

void
clearShutdownRequest()
{
    g_signal = 0;
    shutdownToken().reset();
}

} // namespace unico::common
