/**
 * @file
 * Command-line co-search driver: run any of the shipped algorithms
 * on zoo networks or user-supplied workload files and export the
 * results as CSV — the "tool" face of the library.
 *
 * Usage:
 *   co_search_cli --model resnet [--model vit ...] \
 *                 [--workload my_net.txt ...] [MODEL|FILE ...] \
 *                 [--backend spatial|ascend] \
 *                 [--scenario edge|cloud] [--engine ENGINE] \
 *                 [--area-budget MM2] [--max-shapes K] \
 *                 [--algo unico|hasco|mobohb|nsga2|sh|msh] \
 *                 [--batch N] [--iters I] [--bmax B] [--seed S] \
 *                 [--threads T] [--csv-prefix out/prefix] \
 *                 [--surrogate] [--surrogate-keep F] [--no-surrogate] \
 *                 [--fault-rate F] [--hang-rate F] [--corrupt-rate F] \
 *                 [--fault-seed S] [--checkpoint FILE] [--resume] \
 *                 [--checkpoint-every N] [--checkpoint-keep K] \
 *                 [--progress-every N] [--cache-mb MB] [--no-cache] \
 *                 [--wall-deadline SEC] [--eval-wall-deadline SEC] \
 *                 [--workers N] [--worker-eval-deadline SEC] \
 *                 [--worker-chaos-kills K] [--worker-chaos-seed S] \
 *                 [--fleet-listen HOST:PORT] [--fleet-port-file FILE] \
 *                 [--fleet-connect HOST:PORT]
 *
 * One run: the flags up to --checkpoint-keep are the fields of the
 * core::JobSpec co_search_server takes as JSON (the key with '_' ->
 * '-'; --model and --workload fill the repeatable lists), parsed by
 * the same table and checked by the same validator, so a run and a
 * served job with the same fields write the same bytes. A positional
 * argument is a workload file when it contains a '.' and a model
 * otherwise; models are searched before workload files. The other
 * flags set up this process only and change no result byte.
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
 * --eval-wall-deadline each evaluation attempt in real seconds; the
 * driver reads both between mapping-search chunks of at most 4
 * sweeps, so an evaluation that never returns is not interrupted
 * (only --worker-eval-deadline kills a wedged fleet worker).
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
 * Surrogate screening: --surrogate (or --surrogate-keep F with F in
 * (0, 1]; 0 is off) trains an online ridge-regression cost model on
 * the exact evaluations each run pays for and answers the
 * predicted-worst candidates from the model, reserving exact
 * evaluation for the keep fraction. Off by default; --no-surrogate
 * forces the legacy path, whose outputs are byte-identical to builds
 * without the feature.
 * Screened-out candidates are fidelity-tagged and never become
 * incumbents, Pareto entries, checkpoint state or CSV rows.
 */

#include <iostream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/cli.hh"
#include "common/shard_cache.hh"
#include "common/shutdown.hh"
#include "common/table.hh"
#include "core/fleet.hh"
#include "core/report.hh"
#include "core/run_spec.hh"
#include "surrogate/learned_model.hh"
#include "workload/model_zoo.hh"

using namespace unico;

namespace {

int
usage(const std::string &prog)
{
    std::cerr
        << "usage: " << prog
        << " --model NAME | --workload FILE | MODEL | FILE [more ...]\n"
           "  [--backend NAME] [--scenario edge|cloud]"
           " [--engine random|annealing|genetic]\n"
           "  [--area-budget MM2] [--max-shapes K]"
           " [--algo unico|hasco|mobohb|nsga2|sh|msh]\n"
           "  [--batch N] [--iters I] [--bmax B] [--seed S]"
           " [--threads T] [--csv-prefix PREFIX]\n"
           "  [--surrogate] [--surrogate-keep F] [--no-surrogate]\n"
           "  [--fault-rate F] [--hang-rate F] [--corrupt-rate F]"
           " [--fault-seed S]\n"
           "  [--checkpoint FILE] [--resume] [--checkpoint-every N]"
           " [--checkpoint-keep K]\n"
           "process: [--progress-every N]"
           " [--cache-mb MB] [--no-cache]   (ascend)\n"
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

/** The options that set up this process only: outside the JobSpec,
 *  they change no result byte. */
struct ProcessFlags
{
    std::int64_t cacheMb = 64;
    std::int64_t progressEvery = 0;
    double wallDeadline = 0.0;     ///< 0 = none
    double evalWallDeadline = 0.0; ///< 0 = none
    /** --workers (0 = in-process) and the fleet's timing and chaos
     *  flags. */
    core::FleetConfig fleet;
    /** --fleet-connect (non-empty: serve as a remote worker) and its
     *  timing flags. */
    core::FleetWorkerOptions worker;
};

/** Every process flag, read before anything is printed.
 *  @throws std::invalid_argument naming the first bad flag. */
ProcessFlags
readProcessFlags(const common::CliArgs &args)
{
    const auto check = [](bool ok, const std::string &why) {
        if (!ok)
            throw std::invalid_argument(why);
    };
    ProcessFlags f;
    const std::int64_t workers = args.getInt("workers", 0);
    check(workers >= 0 && workers <= 1024, "--workers must be 0..1024");
    f.fleet.workers = static_cast<std::size_t>(workers);
    f.fleet.requestDeadlineSeconds =
        args.getDouble("worker-eval-deadline", 30.0);
    check(f.fleet.requestDeadlineSeconds > 0.0,
          "--worker-eval-deadline must be > 0");
    const std::int64_t kills = args.getInt("worker-chaos-kills", 0);
    check(kills >= 0, "--worker-chaos-kills must be >= 0");
    f.fleet.chaosKills = static_cast<int>(kills);
    f.fleet.chaosSeed = static_cast<std::uint64_t>(
        args.getInt("worker-chaos-seed", 0x5eed));
    f.fleet.listenAddr = args.getString("fleet-listen", "");
    check(f.fleet.listenAddr.empty() || workers > 0,
          "--fleet-listen requires --workers N");
    f.fleet.connectWaitSeconds = args.getDouble("fleet-connect-wait", 30.0);
    f.fleet.reconnectWaitSeconds =
        args.getDouble("fleet-reconnect-wait", 5.0);
    // Written by the transport the moment the bind resolves — BEFORE
    // the fleet constructor blocks waiting for workers, who need the
    // port to dial in.
    f.fleet.listenPortFile = args.getString("fleet-port-file", "");

    f.worker.connectAddr = args.getString("fleet-connect", "");
    f.worker.connectDeadlineSeconds =
        args.getDouble("fleet-connect-deadline", 10.0);
    f.worker.maxReconnectAttempts =
        static_cast<int>(args.getInt("fleet-reconnect-attempts", 10));
    f.worker.reconnectMaxSeconds =
        args.getDouble("fleet-reconnect-max", 2.0);

    f.wallDeadline = args.getDouble("wall-deadline", 0.0);
    check(f.wallDeadline >= 0.0,
          "--wall-deadline must be a number of seconds >= 0 (0 = none)");
    f.evalWallDeadline = args.getDouble("eval-wall-deadline", 0.0);
    check(f.evalWallDeadline >= 0.0, "--eval-wall-deadline must be a "
                                     "number of seconds >= 0 (0 = none)");
    f.cacheMb = args.getInt("cache-mb", 64);
    f.progressEvery = args.getInt("progress-every", 0);
    return f;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliArgs args(argc, argv);

    ProcessFlags flags;
    try {
        flags = readProcessFlags(args);
    } catch (const std::invalid_argument &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage(args.program());
    }

    // Evaluation cache: on by default; --no-cache disables it and
    // --cache-mb sizes it. Only the ascend backend memoizes, and
    // search results do not depend on either flag.
    const bool cached = !args.has("no-cache") && flags.cacheMb > 0;
    accel::EvalCache cache(
        cached ? static_cast<std::size_t>(flags.cacheMb) * 1024 * 1024 : 0);

    // The run: argv through the JobSpec field table, checked by the
    // validator POST /jobs uses, then its stack (which reads the
    // workload files).
    core::JobSpec spec;
    std::optional<core::RunStack> stack;
    try {
        spec = core::jobSpecFromArgs(args);
        if (const std::string why = core::validateSpec(spec); !why.empty())
            throw std::runtime_error(why);
        stack.emplace(spec, cached ? &cache : nullptr);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage(args.program());
    }
    std::cout << "workloads:";
    for (const auto &name : stack->networkNames)
        std::cout << " " << name;
    std::cout << "\nbackend: " << stack->backend->backendName();
    if (!stack->backend->scenarioName().empty())
        std::cout << " (" << stack->backend->scenarioName() << ")";
    std::cout << "\n";
    if (spec.surrogateKeep > 0.0)
        std::cout << "surrogate screening: keep=" << spec.surrogateKeep
                  << "\n";
    if (stack->faulty)
        std::cout << "fault injection: "
                  << stack->faulty->plan().describe() << "\n";
    core::CoSearchEnv &base_env = stack->env();

    // Remote worker mode: this process serves evaluations for a
    // master elsewhere instead of searching itself. It must be built
    // with the SAME workload/backend/scenario flags — the handshake
    // verifies the stack identity and refuses a mismatch, because a
    // worker on the wrong workload would silently diverge the search.
    const std::string &fleet_connect = flags.worker.connectAddr;
    if (!fleet_connect.empty()) {
        std::cout << "fleet worker: dialing " << fleet_connect << "\n";
        const int rc = core::runFleetWorkerClient(base_env, flags.worker);
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
    if (flags.fleet.workers > 0) {
        const core::FleetConfig &fleet_cfg = flags.fleet;
        try {
            fleet_env =
                std::make_unique<core::FleetEnv>(base_env, fleet_cfg);
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
        std::cout << "evaluation fleet: " << fleet_env->liveWorkers()
                  << "/" << fleet_cfg.workers << " workers";
        if (!fleet_cfg.listenAddr.empty())
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

    core::RunControl control;
    // --progress-every N: the typed events the job server streams, as
    // one JSON object per line on stdout. Trial events are thinned to
    // every Nth; life-cycle events (started/incumbent/front/
    // checkpoint/finished) always print.
    if (const std::int64_t every = flags.progressEvery; every > 0)
        control.onProgress = [every](const core::ProgressEvent &event) {
            if (event.kind != core::ProgressKind::TrialCompleted ||
                event.iteration % every == 0)
                std::cout << core::toJson(event).dump() << std::endl;
        };
    control.wallDeadlineSeconds = flags.wallDeadline;
    control.evalWallDeadlineSeconds = flags.evalWallDeadline;
    // Graceful shutdown of the stepped driver (NSGA-II cannot drain):
    // SIGINT/SIGTERM cancel this token; the driver drains, checkpoints
    // and returns with interrupted state instead of dying mid-write.
    // Scoped install — deliberately after the fleet fork point
    // (handlers must not leak into workers) and live through the run.
    std::optional<common::ShutdownScope> shutdown_scope;
    if (spec.algo != "nsga2") {
        shutdown_scope.emplace();
        control.cancel = &common::shutdownToken();
    }
    core::CoSearchResult result;
    try {
        result = core::runSpec(spec, env, control);
    } catch (const std::exception &e) {
        // A stale/foreign checkpoint, a malformed document or an
        // unwritable CSV must fail with a clean diagnostic, not a
        // core dump.
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    for (const auto &warning : result.warnings)
        std::cerr << "warning: " << warning << "\n";
    if (stack->faulty && spec.algo != "nsga2") {
        const auto counts = stack->faulty->injected();
        std::cout << "\ninjected faults: transient=" << counts.transient
                  << " hang=" << counts.hang
                  << " corrupt=" << counts.corrupt << "\n"
                  << "recovered " << core::toString(result.faults)
                  << "\n";
    } else if (result.faults.total() > 0 || result.faults.gpFallbacks > 0 ||
               result.faults.checkpointRecoveries > 0 ||
               result.faults.transport.total() > 0 ||
               result.faults.transport.workerRespawns > 0) {
        // Genuine (non-injected) faults — evaluation wall-deadline
        // timeouts, GP fit fallbacks, checkpoint recoveries, transport
        // faults the fleet absorbed — also deserve a digest.
        std::cout << "\nrecovered " << core::toString(result.faults)
                  << "\n";
    }

    std::cout << "\n" << core::toString(core::summarize(result)) << "\n";
    if (env.evalCache() != nullptr)
        std::cout << common::toString(result.cacheStats) << "\n";
    if (spec.surrogateKeep > 0.0)
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

    if (const std::string &prefix = spec.csvPrefix; !prefix.empty()) {
        // Cache counters go to their own file so the result CSVs stay
        // byte-identical with the cache on or off.
        const bool ok = env.evalCache() == nullptr ||
                        core::writeCacheCsv(result, prefix + "_cache.csv");
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
