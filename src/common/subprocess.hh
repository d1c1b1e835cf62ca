/**
 * @file
 * Worker-process factory (zygote pattern).
 *
 * The evaluation fleet needs to create worker processes *after* the
 * driver has started its thread pool — but fork(2) from a
 * multithreaded process is a minefield (another thread may hold the
 * allocator lock at fork time, deadlocking the child). The factory
 * therefore forks one single-threaded *zygote* process up front,
 * while the master is still single-threaded; every worker — initial
 * fleet and every respawn after a crash — is then forked by the
 * zygote on request. The zygote hands the master its end of the new
 * worker's socketpair via SCM_RIGHTS ancillary data.
 *
 * The zygote ignores SIGINT/SIGTERM (terminal signals go to the
 * whole foreground process group; workers must outlive a graceful
 * master drain) and sets SIGCHLD to SIG_IGN so dead workers are
 * reaped by the kernel automatically. It exits when the master
 * closes the control socket.
 */

#ifndef UNICO_COMMON_SUBPROCESS_HH
#define UNICO_COMMON_SUBPROCESS_HH

#include <cstdint>
#include <functional>

namespace unico::common {

/** One live worker process, as seen from the master. */
struct WorkerHandle
{
    std::int64_t pid = -1; ///< worker pid (kill/diagnostics)
    int fd = -1;           ///< master end of the worker socketpair
};

/**
 * Pass @p fd plus a small @p tag over the unix socket @p sock.
 * Exposed for tests; the factory uses it to deliver worker sockets.
 */
bool sendFdMessage(int sock, int fd, std::uint64_t tag);

/**
 * Receive a descriptor + tag sent by sendFdMessage. Returns false on
 * EOF, error, malformed ancillary data, or deadline expiry
 * (@p deadline_seconds <= 0 waits forever).
 */
bool recvFdMessage(int sock, int &fd, std::uint64_t &tag,
                   double deadline_seconds = 0.0);

/** Forks worker processes on demand via a pre-forked zygote. */
class WorkerFactory
{
  public:
    /**
     * Fork the zygote. MUST be called while the calling process is
     * still single-threaded. @p child_serve runs inside each spawned
     * worker with the worker end of its socketpair; it must never
     * return (it _exit()s when its stream closes).
     */
    explicit WorkerFactory(std::function<void(int fd)> child_serve);

    /** Close the control socket (zygote exits) and reap it. */
    ~WorkerFactory();

    WorkerFactory(const WorkerFactory &) = delete;
    WorkerFactory &operator=(const WorkerFactory &) = delete;

    /** True if the zygote is up and spawn requests can be made. */
    bool ok() const { return controlFd_ >= 0; }

    /**
     * Ask the zygote to fork a fresh worker. NOT thread-safe; the
     * caller (the fleet's worker pool) serializes spawn requests.
     * @p deadline_seconds bounds the wait for the zygote's reply.
     * On failure the factory is considered broken (ok() == false).
     */
    bool spawn(WorkerHandle &out, double deadline_seconds = 10.0);

  private:
    int controlFd_ = -1;
    std::int64_t zygotePid_ = -1;
};

} // namespace unico::common

#endif // UNICO_COMMON_SUBPROCESS_HH
