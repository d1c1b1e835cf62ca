/**
 * @file
 * Standalone deterministic network-fault injector for the evaluation
 * fleet: a frame-aware TCP proxy that sits between `co_search_cli
 * --fleet-listen` (the master) and `co_search_cli --fleet-connect`
 * workers, injecting delays, drops, duplicates, reorders, torn
 * frames, payload bit flips and hard partitions from a seeded
 * schedule (net/chaos_proxy).
 *
 * Usage:
 *   chaos_proxy --upstream HOST:PORT [--listen HOST:PORT]
 *               [--chaos "seed=7,drop=0.05,delay=0.2:0.02,..."]
 *               [--port-file FILE] [--run-seconds SEC]
 *
 * --listen defaults to 127.0.0.1:0 (a free port; read it from
 * --port-file or stdout). The proxy runs until SIGINT/SIGTERM (or
 * --run-seconds) and then prints its injection ledger, so a chaos run
 * can assert how many faults the fleet actually absorbed.
 *
 * Example — a two-worker fleet on one machine with 5% frame drops and
 * a hard partition every 200 frames:
 *
 *   co_search_cli --model resnet --workers 2 --fleet-listen 127.0.0.1:0 \
 *       --fleet-port-file /tmp/master.port &
 *   chaos_proxy --upstream 127.0.0.1:$(cat /tmp/master.port) \
 *       --chaos "seed=7,drop=0.05,partition=200:0.4" \
 *       --port-file /tmp/proxy.port &
 *   co_search_cli --model resnet --fleet-connect \
 *       127.0.0.1:$(cat /tmp/proxy.port) &   # twice, one per worker
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/cli.hh"
#include "common/io.hh"
#include "common/shutdown.hh"
#include "net/chaos_proxy.hh"

using namespace unico;

namespace {

int
usage(const char *prog)
{
    std::cerr << "usage: " << prog
              << " --upstream HOST:PORT [--listen HOST:PORT]\n"
                 "  [--chaos SPEC] [--port-file FILE]"
                 " [--run-seconds SEC]\n"
                 "chaos SPEC keys: seed=N drop=P tear=P flip=P dup=P"
                 " reorder=P\n"
                 "  delay=P[:SECONDS] partition=EVERY[:SECONDS]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);

    const std::string upstream = args.getString("upstream", "");
    if (upstream.empty())
        return usage(args.program().c_str());
    const std::string listen =
        args.getString("listen", "127.0.0.1:0");

    net::ChaosProfile profile;
    const std::string spec = args.getString("chaos", "");
    std::string error;
    if (!spec.empty() && !net::ChaosProfile::parse(spec, profile, &error)) {
        std::cerr << "error: bad --chaos spec: " << error << "\n";
        return usage(args.program().c_str());
    }

    net::ChaosProxy proxy(listen, upstream, profile);
    if (!proxy.start(&error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    std::cout << "chaos proxy: " << listen << " (port " << proxy.port()
              << ") -> " << upstream << "\n";

    const std::string port_file = args.getString("port-file", "");
    if (!port_file.empty()) {
        std::ofstream out(port_file, std::ios::trunc);
        out << proxy.port() << "\n";
        if (!out) {
            std::cerr << "error: cannot write --port-file "
                      << port_file << "\n";
            return 1;
        }
    }

    // Run until a signal (or the optional wall budget) asks us down.
    // The scope holds the handlers through proxy.stop(), so a second
    // signal while stopping hard-exits.
    {
        const common::ShutdownScope shutdown_scope;
        const double run_seconds = args.getDouble("run-seconds", 0.0);
        const double deadline =
            run_seconds > 0.0 ? common::monotonicNow() + run_seconds
                              : 0.0;
        while (!common::shutdownRequested()) {
            if (deadline > 0.0 && common::monotonicNow() >= deadline)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        proxy.stop();
    }

    const auto c = proxy.counters();
    std::cout << "chaos ledger: connections=" << c.connections
              << " frames=" << c.framesForwarded
              << " delayed=" << c.delayed << " dropped=" << c.dropped
              << " duplicated=" << c.duplicated
              << " reordered=" << c.reordered << " torn=" << c.torn
              << " flipped=" << c.flipped
              << " partitions=" << c.partitions
              << " refused=" << c.refusedDuringPartition << "\n";
    return 0;
}
