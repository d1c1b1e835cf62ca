/**
 * @file
 * Signal-safe graceful-shutdown support, scoped per installation.
 *
 * A ShutdownScope registers SIGINT/SIGTERM handlers that do nothing
 * but cancel the process-wide shutdownToken() (a lock-free atomic
 * store, the only thing a handler may safely do). Long-running loops
 * poll the token at iteration boundaries, drain in-flight work,
 * persist a final checkpoint and exit with a distinct resumable
 * status code (kExitResumable) so supervisors can tell "interrupted,
 * resume me" from success and from hard failure.
 *
 * Installation is scoped and refcounted: nested scopes share one
 * handler installation, and when the last scope is destroyed the
 * previous sigactions are restored and the shutdown token re-armed —
 * so tests and embedding servers can install, tear down and
 * re-install any number of times in one process without leaking
 * handler state.
 *
 * Every search that should stop on a signal polls this one token:
 * co_search_cli hands it to its run and the job manager to each job
 * it runs (JobManagerConfig::shutdownFanout), so a signal reaches
 * every job, queued or running, without a per-job registration.
 *
 * A second SIGINT/SIGTERM while a graceful shutdown is already in
 * progress hard-exits with the conventional 128+signum code: an
 * operator pressing Ctrl-C twice means *now*.
 */

#ifndef UNICO_COMMON_SHUTDOWN_HH
#define UNICO_COMMON_SHUTDOWN_HH

#include "common/cancel.hh"

namespace unico::common {

/** Exit code of a run interrupted with resumable state on disk
 *  (EX_TEMPFAIL: "try again later"). */
constexpr int kExitResumable = 75;

/** The process-wide shutdown token cancelled by the handlers. */
CancelToken &shutdownToken();

/**
 * Scoped SIGINT/SIGTERM handler installation. The first live scope
 * saves the previous sigactions and installs the shutdown handlers;
 * the last one restores them and re-arms the shutdown token. Scopes
 * may nest freely (refcounted); construction is idempotent in
 * effect.
 */
class ShutdownScope
{
  public:
    ShutdownScope();
    ~ShutdownScope();

    ShutdownScope(const ShutdownScope &) = delete;
    ShutdownScope &operator=(const ShutdownScope &) = delete;
};

/** True once a shutdown signal has been received. */
bool shutdownRequested();

} // namespace unico::common

#endif // UNICO_COMMON_SHUTDOWN_HH
