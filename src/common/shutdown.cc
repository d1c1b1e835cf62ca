#include "common/shutdown.hh"

#include <csignal>
#include <mutex>

#include <unistd.h>

namespace unico::common {

namespace {

void
onShutdownSignal(int sig)
{
    if (shutdownToken().cancel(CancelReason::Signal))
        return;
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
        shutdownToken().reset();
    }
}

bool
shutdownRequested()
{
    return shutdownToken().cancelled();
}

} // namespace unico::common
