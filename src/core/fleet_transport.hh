/**
 * @file
 * Transport seam of the evaluation fleet.
 *
 * The fleet protocol (framed request / response with op-history
 * replay, core/fleet) does not care how worker channels come to
 * exist — forked locally over an AF_UNIX socketpair, or dialed in
 * over TCP from another host. FleetTransport is that seam: it
 * produces connected worker channels, and the worker pool supervises
 * (and closes) whatever it gets. Two implementations live in
 * fleet.cc: the zygote transport (fork-on-demand) and the TCP
 * transport (a net::TcpFleetListener adopting remote workers as they
 * handshake in; a listen address that cannot bind throws from its
 * constructor).
 *
 * open() is a blocking call and is ALWAYS invoked outside the pool
 * lock: a TCP reconnect can legitimately wait seconds for a
 * partitioned worker to dial back, and that wait must never stall
 * requests to healthy workers.
 */

#ifndef UNICO_CORE_FLEET_TRANSPORT_HH
#define UNICO_CORE_FLEET_TRANSPORT_HH

#include <cstdint>

namespace unico::core {

/** One connected worker conversation, however it was produced. */
struct WorkerChannel
{
    int fd = -1;
    /** Worker pid when the transport forked it locally (the pool may
     *  SIGKILL it on faults); <= 0 for remote workers. */
    std::int64_t pid = -1;
    /** Remote worker's session id — stable across reconnects of the
     *  same worker process. 0 for local workers. */
    std::uint64_t session = 0;
    /** 0 on a worker's first connect; > 0 means this adoption is a
     *  reconnect of a previously-seen session (counted as a
     *  reconnect, not a respawn, and its resident runs are warm). */
    std::uint64_t epoch = 0;
    /** True when the peer is on the far side of a network. */
    bool remote = false;
};

/** Produces worker channels for the pool. */
class FleetTransport
{
  public:
    virtual ~FleetTransport() = default;

    /** False when the transport can never produce another channel
     *  (the zygote is dead). A TCP listener that cannot bind throws
     *  from its constructor instead, so it is always ok. */
    virtual bool ok() const { return true; }

    /**
     * Produce one connected channel, waiting up to @p wait_seconds.
     * Blocking; called outside the pool lock. Returns false on
     * failure (budget/deadline handling is the pool's job).
     */
    virtual bool open(WorkerChannel &out, double wait_seconds) = 0;

    /** True when a failed open() may succeed if retried (a remote
     *  worker may still dial in); false when failure is terminal
     *  (the zygote cannot fork). */
    virtual bool retryableOpenFailure() const = 0;

    /** Bound TCP port (resolves ":0"), or -1 for local transports. */
    virtual int listenPort() const { return -1; }
};

} // namespace unico::core

#endif // UNICO_CORE_FLEET_TRANSPORT_HH
