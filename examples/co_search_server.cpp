/**
 * @file
 * Multi-tenant co-search job server.
 *
 * Serves the core::JobManager over the minimal HTTP/JSON control
 * plane in serve::JobServer:
 *
 *   co_search_server [--listen HOST:PORT] [--port-file PATH] \
 *                    [--max-concurrent N] [--max-queued N] \
 *                    [--cache-mb MB] [--no-cache]
 *
 * Jobs are submitted as JSON core::JobSpec documents (see
 * core/run_spec.hh): the keys are co_search_cli's run flags with
 * '-' -> '_', checked by the same validator and run by the same
 * builder and runner, so a job served here writes byte-identical
 * records/front/trace CSVs and checkpoints to the same fields run
 * through the CLI. NSGA-II, which has no stepped driver to pause,
 * cancel or stream, runs only through the CLI. All ascend jobs share
 * one evaluation cache (read-mostly, byte-neutral — sharing changes
 * wall-clock time, never results); spatial jobs query the analytical
 * model directly.
 *
 * Shutdown: SIGINT/SIGTERM cancels the process shutdown token, which
 * every job's driver polls; each running job drains at its next
 * cooperative boundary and persists a final checkpoint. The server
 * then refuses new submits, cancels queued jobs, waits for every job
 * to reach a terminal state, and exits with the resumable status
 * code 75 — same contract as an interrupted CLI run.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "common/cli.hh"
#include "common/shutdown.hh"
#include "core/job_manager.hh"
#include "serve/server.hh"

using namespace unico;

namespace {

int
usage(std::ostream &out)
{
    out << "usage: co_search_server [--listen HOST:PORT]\n"
           "  [--port-file PATH] [--max-concurrent N] [--max-queued N]\n"
           "  [--cache-mb MB] [--no-cache]   (ascend jobs)\n"
           "\n"
           "Submit jobs as JSON (co_search_cli's flags, '-' -> '_'):\n"
           "  curl -s http://127.0.0.1:7780/jobs -d \\\n"
           "    '{\"model\":\"resnet\",\"algo\":\"unico\",\"iters\":8,"
           "\"seed\":1,\"csv_prefix\":\"/tmp/job1\"}'\n"
           "  curl -sN http://127.0.0.1:7780/jobs/1/events\n"
           "  curl -s -X POST http://127.0.0.1:7780/jobs/1/cancel\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);
    if (args.has("help"))
        return usage(std::cout);

    // Every number is read before the server binds: one scheduler
    // thread per concurrent job, so the CLI's thread bound applies; a
    // queue of 0 could accept nothing.
    std::int64_t max_concurrent = 0;
    std::int64_t max_queued = 0;
    std::int64_t cache_mb = 0;
    try {
        max_concurrent = args.getInt("max-concurrent", 2);
        if (max_concurrent < 1 || max_concurrent > 256)
            throw std::invalid_argument("--max-concurrent must be 1..256");
        max_queued = args.getInt("max-queued", 16);
        if (max_queued < 1)
            throw std::invalid_argument("--max-queued must be >= 1");
        cache_mb = args.getInt("cache-mb", 64);
    } catch (const std::invalid_argument &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage(std::cerr);
    }

    accel::EvalCache cache(
        args.has("no-cache") || cache_mb <= 0
            ? 0
            : static_cast<std::size_t>(cache_mb) * 1024 * 1024);

    core::JobManagerConfig mgr_cfg;
    mgr_cfg.maxConcurrent = static_cast<std::size_t>(max_concurrent);
    mgr_cfg.maxQueued = static_cast<std::size_t>(max_queued);
    if (!args.has("no-cache") && cache_mb > 0)
        mgr_cfg.sharedCache = &cache;

    // Scoped handler install: one SIGINT cancels the shutdown token
    // every job polls, and each job drains to a checkpoint.
    common::ShutdownScope shutdown_scope;

    core::JobManager manager(mgr_cfg);

    serve::JobServerConfig srv_cfg;
    srv_cfg.addr = args.getString("listen", "127.0.0.1:0");
    serve::JobServer server(manager, srv_cfg);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    std::cout << "co_search_server listening on port " << server.port()
              << " (max-concurrent=" << mgr_cfg.maxConcurrent
              << ", max-queued=" << mgr_cfg.maxQueued << ")\n";
    std::cout.flush();

    // Port file last, after the listener is live: watchers treat its
    // existence as "ready to accept".
    const std::string port_file = args.getString("port-file", "");
    if (!port_file.empty()) {
        std::FILE *f = std::fopen(port_file.c_str(), "w");
        if (f == nullptr) {
            std::cerr << "error: cannot write " << port_file << "\n";
            return 1;
        }
        std::fprintf(f, "%d\n", server.port());
        std::fclose(f);
    }

    while (!common::shutdownRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::cout << "shutdown signal received; draining jobs...\n";
    std::cout.flush();

    // Running jobs already see the shutdown token; shutdown() also
    // refuses new submits and cancels anything still queued. Then
    // wait for every job to reach a terminal state — running jobs
    // finish their current boundary and write a final checkpoint.
    manager.shutdown();
    for (const auto &st : manager.list())
        manager.wait(st.id);
    server.stop();

    std::size_t drained = 0;
    for (const auto &st : manager.list()) {
        std::cout << "job " << st.id << ": "
                  << core::toString(st.state)
                  << (st.error.empty() ? "" : " (" + st.error + ")")
                  << "\n";
        ++drained;
    }
    std::cout << "drained " << drained << " job(s); exiting resumable\n";
    return common::kExitResumable;
}
