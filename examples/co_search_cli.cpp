/**
 * @file
 * Command-line co-search driver: run any of the shipped algorithms
 * on zoo networks or user-supplied workload files and export the
 * results as CSV — the "tool" face of the library.
 *
 * Usage:
 *   co_search_cli --model resnet [--model vit ...] \
 *                 [--workload my_net.txt ...] \
 *                 [--backend spatial|ascend] \
 *                 [--scenario edge|cloud] [--engine ENGINE] \
 *                 [--area-budget MM2] \
 *                 [--algo unico|hasco|mobohb|nsga2|sh|msh] \
 *                 [--batch N] [--iters I] [--bmax B] [--seed S] \
 *                 [--threads T] \
 *                 [--csv-prefix out/prefix] [--progress-every N] \
 *                 [--cache-mb MB] [--no-cache] \
 *                 [--surrogate] [--surrogate-keep F] [--no-surrogate] \
 *                 [--fault-rate F] [--hang-rate F] [--corrupt-rate F] \
 *                 [--fault-seed S] [--checkpoint FILE] [--resume] \
 *                 [--checkpoint-every N] [--checkpoint-keep K] \
 *                 [--wall-deadline SEC] [--eval-wall-deadline SEC] \
 *                 [--workers N] [--worker-eval-deadline SEC] \
 *                 [--worker-chaos-kills K] [--worker-chaos-seed S] \
 *                 [--fleet-listen HOST:PORT] [--fleet-port-file FILE] \
 *                 [--fleet-connect HOST:PORT]
 *
 * Evaluation fleet: --workers N forks N evaluation worker processes
 * (master/worker over CRC-framed socketpairs, Sec. 3.5's cluster
 * deployment in miniature). Worker crashes, hangs and corrupt
 * responses are absorbed by respawn + deterministic replay, so
 * results — records, front, trace CSVs and checkpoints — are
 * byte-identical to the in-process run for any worker count, even
 * under --worker-chaos-kills, which SIGKILLs live workers mid-search
 * at seeded points to prove exactly that.
 *
 * Multi-host fleet: --fleet-listen HOST:PORT (with --workers N)
 * switches the master from forked workers to a TCP listener that
 * adopts N remote workers as they dial in (":0" picks a free port;
 * --fleet-port-file writes the resolved port for scripts). On another
 * host — or through the chaos_proxy binary — start workers with the
 * SAME workload/backend/scenario flags plus --fleet-connect
 * HOST:PORT: the handshake refuses a worker whose stack identity
 * (backend, scenario, workload digest) differs, and a worker that
 * loses its connection reconnects with jittered exponential backoff
 * and resumes exactly-once via op-history replay. Results stay
 * byte-identical to the in-process run through all of it.
 *
 * Fault tolerance: the --*-rate flags wrap the environment in a
 * deterministic fault injector (per-evaluation crash/hang/corrupt
 * probabilities) to exercise the driver's supervisor; --checkpoint
 * saves resumable state at trial boundaries (every N trials with
 * --checkpoint-every, keeping a K-deep rotation window with
 * --checkpoint-keep) and --resume continues a killed search from the
 * newest valid generation, bit-for-bit.
 *
 * Interruption: SIGINT/SIGTERM wind the search down gracefully —
 * in-flight evaluations drain, a final checkpoint is written, and the
 * process exits with code 75 (EX_TEMPFAIL: resumable). A second
 * signal kills immediately. --wall-deadline bounds the whole run and
 * --eval-wall-deadline each evaluation attempt in real seconds.
 *
 * Evaluation cache (ascend runs): cycle-level simulator queries are
 * memoized in a sharded LRU cache (--cache-mb sets the byte budget,
 * default 64 MB; --no-cache disables it). Results, checkpoints and
 * the records/front/trace CSVs are bit-identical either way — only
 * wall-clock changes. Spatial runs query the analytical model
 * directly: they ignore both flags, print no cache: line and write no
 * <prefix>_cache.csv.
 *
 * Progress: --progress-every N prints one JSON object per line on
 * stdout — the stepped driver's typed progress events (started /
 * trial / incumbent / front / checkpoint / finished), with trial
 * events thinned to every Nth. The identical event stream is what
 * co_search_server serves over HTTP, so scripts can watch either.
 *
 * Surrogate screening: --surrogate (tune with --surrogate-keep F,
 * default 0.25) trains an online ridge-regression cost model on the
 * exact evaluations each run pays for and answers the predicted-worst
 * candidates from the model, reserving exact evaluation for the keep
 * fraction. Off by default; --no-surrogate forces the legacy path,
 * whose outputs are byte-identical to builds without the feature.
 * Screened-out candidates are fidelity-tagged and never become
 * incumbents, Pareto entries, checkpoint state or CSV rows.
 */

#include <iostream>

#include "baselines/nsga2.hh"
#include "common/cli.hh"
#include "common/fault.hh"
#include "common/shard_cache.hh"
#include "common/shutdown.hh"
#include "common/table.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "core/fault_env.hh"
#include "core/fleet.hh"
#include "core/report.hh"
#include "surrogate/learned_model.hh"
#include "workload/model_zoo.hh"
#include "workload/parser.hh"

using namespace unico;

namespace {

int
usage(const char *prog)
{
    std::cerr
        << "usage: " << prog
        << " --model NAME | --workload FILE [more ...]\n"
           "  [--backend NAME] [--scenario edge|cloud]"
           " [--engine random|annealing|genetic]\n"
           "  [--area-budget MM2] [--algo unico|hasco|mobohb|"
           "nsga2|sh|msh]\n"
           "  [--batch N] [--iters I] [--bmax B] [--seed S]"
           " [--threads T]\n"
           "  [--max-shapes K] [--csv-prefix PREFIX]"
           " [--progress-every N]\n"
           "  [--cache-mb MB] [--no-cache]   (ascend)\n"
           "  [--surrogate] [--surrogate-keep F] [--no-surrogate]\n"
           "  [--fault-rate F] [--hang-rate F] [--corrupt-rate F]"
           " [--fault-seed S]\n"
           "  [--checkpoint FILE] [--resume] [--checkpoint-every N]"
           " [--checkpoint-keep K]\n"
           "  [--wall-deadline SEC] [--eval-wall-deadline SEC]\n"
           "  [--workers N] [--worker-eval-deadline SEC]"
           " [--worker-chaos-kills K] [--worker-chaos-seed S]\n"
           "  [--fleet-listen HOST:PORT] [--fleet-port-file FILE]"
           " [--fleet-connect HOST:PORT]\n"
           "backends: ";
    for (const auto &name : core::backendNames())
        std::cerr << name << " ";
    std::cerr << "\nmodels: ";
    for (const auto &name : workload::modelNames())
        std::cerr << name << " ";
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);

    // Workload list: every positional arg and every --model /
    // --workload option value.
    std::vector<workload::Network> nets;
    try {
        if (args.has("model"))
            nets.push_back(
                workload::makeNetwork(args.getString("model", "")));
        if (args.has("workload"))
            nets.push_back(workload::parseNetworkFile(
                args.getString("workload", "")));
        for (const auto &pos : args.positional()) {
            if (pos.find('.') != std::string::npos)
                nets.push_back(workload::parseNetworkFile(pos));
            else
                nets.push_back(workload::makeNetwork(pos));
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage(args.program().c_str());
    }
    if (nets.empty())
        return usage(args.program().c_str());

    // Backend selection: every evaluation stack (HW space + mapping
    // search + PPA engine) is constructed through the registry, and
    // each backend parses its own option vocabulary.
    const std::string backend = args.getString("backend", "spatial");
    core::BackendOptions env_opt;
    try {
        env_opt = core::parseBackendOptions(backend, args);
    } catch (const core::BackendError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage(args.program().c_str());
    }

    // Search sizes, checkpoint rotation and fault rates: the bounds
    // the job server enforces on a JobSpec.
    for (const std::string &error :
         {core::searchSizeError(args.getInt("batch", 20),
                                args.getInt("iters", 8),
                                args.getInt("bmax", 200),
                                args.getInt("threads", 1)),
          core::checkpointRotationError(args.getInt("checkpoint-every", 1),
                                        args.getInt("checkpoint-keep", 3)),
          core::faultRateError(args.getDouble("fault-rate", 0.0),
                               args.getDouble("hang-rate", 0.0),
                               args.getDouble("corrupt-rate", 0.0))}) {
        if (!error.empty()) {
            std::cerr << "error: " << error << "\n";
            return usage(args.program().c_str());
        }
    }

    // Evaluation cache: on by default; --no-cache disables it and
    // --cache-mb sizes it. Only the ascend backend memoizes, and
    // search results do not depend on either flag.
    const std::int64_t cache_mb = args.getInt("cache-mb", 64);
    accel::EvalCache cache(
        args.has("no-cache") || cache_mb <= 0
            ? 0
            : static_cast<std::size_t>(cache_mb) * 1024 * 1024);
    if (!args.has("no-cache") && cache_mb > 0)
        env_opt.cache = &cache;

    // Learned surrogate screening: off by default (byte-identical
    // legacy path); --surrogate (or --surrogate-keep F) turns it on,
    // --no-surrogate wins over both. Exact evaluations stay the sole
    // source of truth — screened-out candidates never reach results,
    // checkpoints or the records/front/trace CSVs.
    surrogate::SurrogateContext surrogate_ctx;
    surrogate_ctx.options.enabled =
        (args.has("surrogate") || args.has("surrogate-keep")) &&
        !args.has("no-surrogate");
    surrogate_ctx.options.keep =
        args.getDouble("surrogate-keep", surrogate_ctx.options.keep);
    if (surrogate_ctx.options.enabled) {
        if (!(surrogate_ctx.options.keep > 0.0) ||
            surrogate_ctx.options.keep > 1.0) {
            std::cerr
                << "error: --surrogate-keep must be in (0, 1]\n";
            return usage(args.program().c_str());
        }
        env_opt.surrogate = &surrogate_ctx;
    }

    std::cout << "workloads:";
    for (const auto &net : nets)
        std::cout << " " << net.name();
    const std::unique_ptr<core::CoSearchEnv> backend_env =
        core::makeBackendEnv(backend, std::move(nets), env_opt);
    std::cout << "\nbackend: " << backend_env->backendName();
    if (!backend_env->scenarioName().empty())
        std::cout << " (" << backend_env->scenarioName() << ")";
    std::cout << "\n";
    if (surrogate_ctx.options.enabled)
        std::cout << "surrogate screening: keep="
                  << surrogate_ctx.options.keep << "\n";

    // Optional fault injection: wrap the real environment in a
    // deterministic injector so the run exercises the supervisor.
    common::FaultSpec fault_spec;
    fault_spec.transientRate = args.getDouble("fault-rate", 0.0);
    fault_spec.hangRate = args.getDouble("hang-rate", 0.0);
    fault_spec.corruptRate = args.getDouble("corrupt-rate", 0.0);
    fault_spec.seed =
        static_cast<std::uint64_t>(args.getInt("fault-seed", 7));
    core::FaultyEnv faulty_env(*backend_env,
                               common::FaultPlan(fault_spec));
    core::CoSearchEnv &base_env =
        fault_spec.active() ? static_cast<core::CoSearchEnv &>(faulty_env)
                            : *backend_env;
    if (fault_spec.active())
        std::cout << "fault injection: "
                  << faulty_env.plan().describe() << "\n";

    // Remote worker mode: this process serves evaluations for a
    // master elsewhere instead of searching itself. It must be built
    // with the SAME workload/backend/scenario flags — the handshake
    // verifies the stack identity and refuses a mismatch, because a
    // worker on the wrong workload would silently diverge the search.
    const std::string fleet_connect =
        args.getString("fleet-connect", "");
    if (!fleet_connect.empty()) {
        core::FleetWorkerOptions wopts;
        wopts.connectAddr = fleet_connect;
        wopts.connectDeadlineSeconds =
            args.getDouble("fleet-connect-deadline", 10.0);
        wopts.maxReconnectAttempts = static_cast<int>(
            args.getInt("fleet-reconnect-attempts", 10));
        wopts.reconnectMaxSeconds =
            args.getDouble("fleet-reconnect-max", 2.0);
        std::cout << "fleet worker: dialing " << fleet_connect << "\n";
        const int rc = core::runFleetWorkerClient(base_env, wopts);
        if (rc == 1)
            std::cerr << "error: master at " << fleet_connect
                      << " unreachable\n";
        else if (rc == 2)
            std::cerr << "error: master refused this worker's stack "
                         "identity (wrong workload/backend/scenario)\n";
        return rc;
    }

    // Optional evaluation fleet: fork worker processes NOW, while the
    // process is still single-threaded (the zygote must precede the
    // driver's thread pool). Results are byte-identical to the
    // in-process path for any worker count.
    std::unique_ptr<core::FleetEnv> fleet_env;
    const std::int64_t workers_arg = args.getInt("workers", 0);
    const double worker_deadline =
        args.getDouble("worker-eval-deadline", 30.0);
    const std::int64_t worker_kills =
        args.getInt("worker-chaos-kills", 0);
    if (workers_arg < 0 || workers_arg > 1024 || worker_kills < 0 ||
        !(worker_deadline > 0.0)) {
        std::cerr << "error: --workers must be 0..1024, "
                     "--worker-chaos-kills >= 0 and "
                     "--worker-eval-deadline > 0\n";
        return usage(args.program().c_str());
    }
    const auto fleet_workers = static_cast<std::size_t>(workers_arg);
    const std::string fleet_listen = args.getString("fleet-listen", "");
    if (!fleet_listen.empty() && fleet_workers == 0) {
        std::cerr << "error: --fleet-listen requires --workers N\n";
        return usage(args.program().c_str());
    }
    if (fleet_workers > 0) {
        core::FleetConfig fleet_cfg;
        fleet_cfg.workers = fleet_workers;
        fleet_cfg.requestDeadlineSeconds = worker_deadline;
        fleet_cfg.chaosKills = static_cast<int>(worker_kills);
        fleet_cfg.chaosSeed = static_cast<std::uint64_t>(
            args.getInt("worker-chaos-seed", 0x5eed));
        fleet_cfg.listenAddr = fleet_listen;
        fleet_cfg.connectWaitSeconds =
            args.getDouble("fleet-connect-wait", 30.0);
        fleet_cfg.reconnectWaitSeconds =
            args.getDouble("fleet-reconnect-wait", 5.0);
        // Written by the transport the moment the bind resolves —
        // BEFORE the constructor below blocks waiting for workers,
        // who need the port to dial in.
        fleet_cfg.listenPortFile =
            args.getString("fleet-port-file", "");
        try {
            fleet_env =
                std::make_unique<core::FleetEnv>(base_env, fleet_cfg);
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
        std::cout << "evaluation fleet: " << fleet_env->liveWorkers()
                  << "/" << fleet_workers << " workers";
        if (!fleet_listen.empty())
            std::cout << " (tcp port " << fleet_env->listenPort()
                      << ")";
        if (fleet_cfg.chaosKills > 0)
            std::cout << " (chaos: " << fleet_cfg.chaosKills
                      << " kills, seed " << fleet_cfg.chaosSeed << ")";
        std::cout << "\n";
    }
    core::CoSearchEnv &env =
        fleet_env ? static_cast<core::CoSearchEnv &>(*fleet_env)
                  : base_env;

    const std::string algo = args.getString("algo", "unico");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    core::CoSearchResult result;
    if (algo == "nsga2") {
        baselines::Nsga2Config cfg;
        cfg.population = static_cast<int>(args.getInt("batch", 20));
        cfg.generations = static_cast<int>(args.getInt("iters", 8));
        cfg.swBudget = static_cast<int>(args.getInt("bmax", 200));
        cfg.seed = seed;
        result = baselines::runNsga2(env, cfg);
    } else {
        core::DriverConfig cfg;
        try {
            cfg = core::driverConfigForAlgo(algo);
        } catch (const std::exception &) {
            return usage(args.program().c_str());
        }
        cfg.batchSize = static_cast<int>(args.getInt("batch", 20));
        cfg.maxIter = static_cast<int>(args.getInt("iters", 8));
        cfg.sh.bMax = static_cast<int>(args.getInt("bmax", 200));
        cfg.realThreads =
            static_cast<std::size_t>(args.getInt("threads", 1));
        cfg.seed = seed;
        cfg.checkpointPath = args.getString("checkpoint", "");
        cfg.resumeFromCheckpoint = args.has("resume");
        if (cfg.resumeFromCheckpoint && cfg.checkpointPath.empty()) {
            std::cerr << "error: --resume requires --checkpoint FILE\n";
            return usage(args.program().c_str());
        }
        cfg.checkpointEvery =
            static_cast<int>(args.getInt("checkpoint-every", 1));
        cfg.checkpointKeep =
            static_cast<int>(args.getInt("checkpoint-keep", 3));
        cfg.wallDeadlineSeconds = args.getDouble("wall-deadline", 0.0);
        cfg.evalWallDeadlineSeconds =
            args.getDouble("eval-wall-deadline", 0.0);
        // Graceful shutdown: SIGINT/SIGTERM cancel this token; the
        // driver drains, checkpoints and returns with interrupted
        // state instead of dying mid-write. Scoped install — this is
        // deliberately after the fleet fork point (handlers must not
        // leak into workers) and stays live through the run.
        common::ShutdownScope shutdown_scope;
        cfg.cancel = &common::shutdownToken();

        // --progress-every N: machine-readable progress as one JSON
        // object per line on stdout — the same typed events the job
        // server streams. Trial events are thinned to every Nth;
        // life-cycle events (started/incumbent/front/checkpoint/
        // finished) always print.
        struct NdjsonProgress final : core::ProgressObserver
        {
            int every = 0;

            void
            onProgress(const core::ProgressEvent &event) override
            {
                if (event.kind == core::ProgressKind::TrialCompleted &&
                    event.iteration % every != 0)
                    return;
                std::cout << core::toJson(event).dump() << "\n";
                std::cout.flush();
            }
        };
        NdjsonProgress progress;
        progress.every =
            static_cast<int>(args.getInt("progress-every", 0));
        core::ProgressObserver *observer =
            progress.every > 0 ? &progress : nullptr;

        core::CoOptimizer driver(env, cfg, nullptr, observer);
        try {
            result = driver.run();
        } catch (const std::exception &e) {
            // A stale/foreign checkpoint or a malformed document must
            // fail with a clean diagnostic, not a core dump.
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
        for (const auto &warning : result.warnings)
            std::cerr << "warning: " << warning << "\n";
        if (fault_spec.active()) {
            const auto counts = faulty_env.injected();
            std::cout << "\ninjected faults: transient="
                      << counts.transient << " hang=" << counts.hang
                      << " corrupt=" << counts.corrupt << "\n"
                      << "recovered " << core::toString(result.faults)
                      << "\n";
        } else if (result.faults.total() > 0 ||
                   result.faults.gpFallbacks > 0 ||
                   result.faults.checkpointRecoveries > 0 ||
                   result.faults.transport.total() > 0 ||
                   result.faults.transport.workerRespawns > 0) {
            // Genuine (non-injected) faults — watchdog timeouts, GP
            // fit fallbacks, checkpoint recoveries, transport faults
            // the fleet absorbed — also deserve a digest.
            std::cout << "\nrecovered " << core::toString(result.faults)
                      << "\n";
        }
    }

    // Baselines (nsga2) don't report cache counters themselves;
    // snapshot them here so every algorithm prints the same digest,
    // with the surrogate digest beside it.
    if (const accel::EvalCache *c = env.evalCache())
        result.cacheStats = c->stats();
    result.surrogateStats = env.surrogateStats();

    std::cout << "\n" << core::toString(core::summarize(result)) << "\n";
    if (env.evalCache() != nullptr)
        std::cout << common::toString(result.cacheStats) << "\n";
    if (surrogate_ctx.options.enabled)
        std::cout << surrogate::toString(result.surrogateStats) << "\n";
    std::cout << "\n";
    common::TableWriter table(
        {"hw", "L(ms)", "P(mW)", "A(mm2)", "R"});
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        table.addRow({env.describeHw(rec.hw),
                      common::TableWriter::num(rec.ppa.latencyMs),
                      common::TableWriter::num(rec.ppa.powerMw, 1),
                      common::TableWriter::num(rec.ppa.areaMm2, 2),
                      common::TableWriter::num(rec.sensitivity, 3)});
    }
    std::cout << "Pareto front:\n";
    table.print(std::cout);
    if (!result.front.empty()) {
        const auto &best = result.records[result.minDistanceRecord()];
        std::cout << "\nrecommended design: "
                  << env.describeHw(best.hw) << "\n";
    }

    const std::string prefix = args.getString("csv-prefix", "");
    if (!prefix.empty()) {
        bool ok =
            core::writeRecordsCsv(result, env, prefix + "_records.csv") &&
            core::writeFrontCsv(result, env, prefix + "_front.csv") &&
            core::writeTraceCsv(result, prefix + "_trace.csv");
        // Cache counters go to their own file so the three result
        // CSVs above stay byte-identical with the cache on or off.
        if (env.evalCache() != nullptr)
            ok = ok &&
                 core::writeCacheCsv(result, prefix + "_cache.csv");
        // Likewise the fault ledger (supervisor + transport): its
        // counters legitimately differ across execution topologies.
        ok = ok && core::writeFaultsCsv(result, prefix + "_faults.csv");
        std::cout << (ok ? "\ncsv written to " : "\ncsv write FAILED: ")
                  << prefix << "_{records,front,trace}.csv\n";
        if (!ok)
            return 1;
    }
    if (result.interrupted) {
        std::cout << "\ninterrupted (" << result.interruptReason
                  << "): state checkpointed, rerun with --resume to "
                     "continue\n";
        return common::kExitResumable;
    }
    return 0;
}
