/**
 * @file
 * TCP channel establishment for the evaluation fleet.
 *
 * The master side binds a `TcpFleetListener`; remote worker processes
 * dial in with `connectWorker`. Before a connection becomes a fleet
 * channel the two ends run a one-frame handshake:
 *
 *   worker → master  {"op":"hello", "proto", "backend", "scenario",
 *                     "digest", "session", "epoch"}
 *   master → worker  {"op":"welcome", "proto"}   — or —
 *                    {"op":"reject", "message"}  + close
 *
 * The hello carries the worker's *stack identity* (backend, scenario,
 * workload digest — the same triple checkpoints are stamped with), so
 * a worker started against the wrong workload is refused before it
 * can serve a single evaluation and silently diverge the search. It
 * also carries a session id (stable across reconnects of the same
 * worker process) and an epoch (bumped on every reconnect), which is
 * how the master distinguishes a fresh worker from a partitioned one
 * coming back — the latter counts as a reconnect, not a respawn, and
 * keeps its resident-run cache warm.
 *
 * The handshake is JSON because it runs once per connection. A hello
 * whose "proto" is not kFleetProtocol is refused with "protocol
 * mismatch": the records that follow it (core/fleet_wire) are binary
 * since protocol 2, and a protocol-1 peer would speak JSON.
 *
 * Channels hand over raw fds; the fleet protocol on top (core/fleet)
 * is transport-agnostic and byte-identical to the socketpair path.
 */

#ifndef UNICO_NET_TCP_TRANSPORT_HH
#define UNICO_NET_TCP_TRANSPORT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "common/stack_identity.hh"

namespace unico::net {

/** Fleet protocol revision, checked by the handshake: 2 is the
 *  fixed-layout binary records of core/fleet_wire, 1 was JSON. */
inline constexpr std::uint64_t kFleetProtocol = 2;

/** One handshaken worker connection, ready for fleet requests. */
struct TcpChannel
{
    int fd = -1;
    std::uint64_t session = 0; ///< stable across reconnects
    std::uint64_t epoch = 0;   ///< 0 = first connect, else reconnect #
};

/**
 * Master-side acceptor: binds, accepts, handshakes, and queues ready
 * worker channels for the fleet to adopt. One background thread; all
 * public methods are thread-safe.
 */
class TcpFleetListener
{
  public:
    /** @p identity is the stack a connecting worker must present;
     *  StackIdentity::mismatch() decides, so an empty field on either
     *  side matches anything. */
    TcpFleetListener(std::string listen_addr,
                     common::StackIdentity identity);
    ~TcpFleetListener();

    TcpFleetListener(const TcpFleetListener &) = delete;
    TcpFleetListener &operator=(const TcpFleetListener &) = delete;

    /** Bind + start accepting. False (with @p error) on bind failure. */
    bool start(std::string *error = nullptr);

    /** Actual bound port (resolves ":0"), or -1 before start(). */
    int port() const { return port_; }

    /**
     * Wait up to @p deadline_seconds (<= 0: one non-blocking poll)
     * for a handshaken channel. True and fills @p out on success.
     * Ownership of out.fd transfers to the caller.
     */
    bool awaitChannel(double deadline_seconds, TcpChannel &out);

    /** Stop accepting and close every queued (unadopted) channel. */
    void stop();

    /** Hellos refused for identity/protocol mismatch. */
    std::uint64_t rejectedHandshakes() const
    {
        return rejected_.load(std::memory_order_relaxed);
    }

    /** Channels successfully handshaken (adopted or still queued). */
    std::uint64_t acceptedChannels() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop();
    bool handshake(int fd, TcpChannel &out);

    std::string addr_;
    common::StackIdentity identity_;
    int listenFd_ = -1;
    int port_ = -1;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::thread thread_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<TcpChannel> ready_;
};

/**
 * Worker-side dial + hello. Connects to @p addr, presents
 * @p identity / @p session / @p epoch, and waits for the welcome.
 * Returns the connected fd, or -1 with a diagnostic in @p error
 * (identity rejection included — the caller must NOT retry those).
 * @p rejected, when non-null, is set true iff the master refused the
 * handshake (vs a transport-level failure, which is retryable).
 */
int connectWorker(const std::string &addr,
                  const common::StackIdentity &identity,
                  std::uint64_t session, std::uint64_t epoch,
                  double deadline_seconds, std::string *error = nullptr,
                  bool *rejected = nullptr);

} // namespace unico::net

#endif // UNICO_NET_TCP_TRANSPORT_HH
