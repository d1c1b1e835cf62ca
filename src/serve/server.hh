/**
 * @file
 * HTTP/JSON front-end over the multi-tenant job manager.
 *
 * A JobServer binds one TCP listener and serves a small control
 * plane for core::JobManager:
 *
 *   GET  /healthz           liveness + scheduler capacity
 *   POST /jobs              submit a JSON JobSpec -> {"id": N}
 *   GET  /jobs              status snapshots of every job
 *   GET  /jobs/N            status snapshot of one job
 *   GET  /jobs/N/events     newline-delimited JSON progress stream
 *                           (replayable; "?from=K" resumes mid-log)
 *   POST /jobs/N/cancel     drain the job at its next boundary
 *   POST /jobs/N/pause      park the job at its next trial boundary
 *   POST /jobs/N/resume     wake a paused job
 *
 * Submit rejections map the manager's typed errors onto status codes:
 * BadSpec -> 400, QueueFull -> 429, ShuttingDown -> 503. Connections
 * are one-shot; the event stream is one long response body that ends
 * when the job reaches a terminal state.
 *
 * The server owns only connection plumbing — job semantics (isolation,
 * byte-identity with the CLI, shutdown drain) live in the manager.
 * Determinism note: serving adds no search-visible state, so a job
 * submitted over HTTP writes byte-identical records/front/trace CSVs
 * and checkpoints to the same spec run through co_search_cli.
 */

#ifndef UNICO_SERVE_SERVER_HH
#define UNICO_SERVE_SERVER_HH

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/job_manager.hh"

namespace unico::serve {

/** Server construction options. */
struct JobServerConfig
{
    /** Bind address; port 0 picks a free port (see port()). */
    std::string addr = "127.0.0.1:0";
};

/**
 * Minimal HTTP front-end serving one JobManager. start() binds and
 * spawns the accept loop; stop() drains connections and joins.
 */
class JobServer
{
  public:
    explicit JobServer(core::JobManager &manager,
                       JobServerConfig cfg = JobServerConfig{});
    ~JobServer();

    JobServer(const JobServer &) = delete;
    JobServer &operator=(const JobServer &) = delete;

    /** Bind + listen + spawn the accept thread. False on bind
     *  failure with a diagnostic in @p error. */
    bool start(std::string *error = nullptr);

    /** Actual bound port (resolves ":0"), or -1 before start(). */
    int port() const { return port_; }

    /** Stop accepting, wake streams, join every connection thread.
     *  Idempotent. Does NOT cancel jobs — callers that want a full
     *  drain call manager().shutdown() as well. */
    void stop();

    core::JobManager &manager() { return manager_; }

  private:
    void acceptLoop();
    void handleConnection(int fd);

    core::JobManager &manager_;
    JobServerConfig cfg_;
    int listenFd_ = -1;
    int port_ = -1;
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::mutex connMu_;
    std::vector<std::thread> connThreads_;
};

} // namespace unico::serve

#endif // UNICO_SERVE_SERVER_HH
