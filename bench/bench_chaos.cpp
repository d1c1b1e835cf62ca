/**
 * @file
 * Crash-resilience overhead sweep: forks the real co_search_cli
 * binary, SIGKILLs it K times mid-search, resumes after every kill,
 * and reports the wall-clock cost and the re-executed-trial overhead
 * of each kill count relative to the uninterrupted run — the price of
 * crash-consistency. Each killed run streams its progress events
 * (--progress-every 1) and is killed right after a seeded number of
 * "checkpoint" events, so a kill lands mid-search however fast the
 * build is: every killed run persists at least one trial, and enough
 * trials remain for the kills still to come. K must be below --iters,
 * and a row that delivers fewer than K kills fails the bench.
 *
 * Expected shape: outputs stay byte-identical at every K (asserted),
 * total wall time grows roughly linearly with K (each kill discards
 * the partial trial in flight plus the killed process's start-up),
 * and the re-executed-trial count stays at 0, since every kill
 * follows a checkpoint save.
 *
 * A second sweep exercises the evaluation fleet: the CLI runs with
 * --workers 4 and the master SIGKILLs K of its own worker processes
 * mid-search (--worker-chaos-kills). Here the master survives, so the
 * cost of a kill is a respawn plus one replayed request — outputs
 * must again be byte-identical to the in-process baseline.
 *
 * A third sweep exercises the multi-host TCP transport: the master
 * listens on localhost, two worker PROCESSES dial it through the
 * chaos proxy, and each row applies a different network-fault profile
 * (clean TCP, added latency, frame drops, hard partitions, and the
 * full storm). The row reports wall-clock overhead versus in-process,
 * the transport's fault ledger (lost connections, reconnects, stale /
 * torn / corrupt frames) and round-trips per acked op — and asserts
 * byte-identical records at every profile.
 *
 * All sweeps land in BENCH_chaos.json (machine-readable, uploaded by
 * CI next to BENCH_micro.json) in addition to the console table and
 * the optional --csv file.
 *
 * Usage: bench_chaos [--kills "0,1,2,4,8"] [--worker-kills "0,2,4,8"]
 *                    [--workers 4] [--iters N] [--batch N] [--bmax B]
 *                    [--seed S] [--csv out.csv]
 *                    [--json BENCH_chaos.json] [--no-net]
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"

#ifndef UNICO_CLI_PATH
#define UNICO_CLI_PATH "./examples/co_search_cli"
#endif
#ifndef UNICO_PROXY_PATH
#define UNICO_PROXY_PATH "./examples/chaos_proxy"
#endif

namespace {

struct Lcg
{
    std::uint64_t s;
    explicit Lcg(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Fork + exec @p args. The child's stdout goes to @p stdout_fd, or
 *  to /dev/null when it is negative. */
pid_t
spawn(const std::vector<std::string> &args, int stdout_fd = -1)
{
    std::vector<char *> argv;
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    // Flush before fork: the child would otherwise replay the
    // parent's buffered output when freopen flushes the stream.
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        if (stdout_fd >= 0)
            dup2(stdout_fd, STDOUT_FILENO);
        else
            std::freopen("/dev/null", "w", stdout);
        execv(argv[0], argv.data());
        _exit(127);
    }
    return pid;
}

/**
 * Run the CLI to completion, or — with @p kill_at > 0 — stream its
 * progress events and SIGKILL it right after its kill_at-th
 * checkpoint event, unless it exits first. True = killed.
 */
bool
runMaybeKill(std::vector<std::string> args, int kill_at, int &exit_code)
{
    int status = 0;
    if (kill_at <= 0) {
        waitpid(spawn(args), &status, 0);
        exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        return false;
    }
    args.push_back("--progress-every");
    args.push_back("1");
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        std::perror("pipe2");
        std::exit(1);
    }
    const pid_t pid = spawn(args, fds[1]);
    ::close(fds[1]);
    // Drain stdout to EOF even after the kill, so the child never
    // blocks on a full pipe.
    int checkpoints = 0;
    bool sent = false;
    std::string line;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        for (ssize_t i = 0; i < n && !sent; ++i) {
            if (buf[i] != '\n') {
                line += buf[i];
                continue;
            }
            if (line.find("\"event\":\"checkpoint\"") !=
                    std::string::npos &&
                ++checkpoints == kill_at) {
                kill(pid, SIGKILL);
                sent = true;
            }
            line.clear();
        }
    }
    ::close(fds[0]);
    waitpid(pid, &status, 0);
    // A child that exited before the signal arrived was not killed.
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        return true;
    exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return false;
}

/** Numeric column from a one-row fault-ledger CSV; 0 if absent. */
std::uint64_t
faultsCsvColumn(const std::string &path, const std::string &name)
{
    const std::string text = readFile(path);
    const auto nl = text.find('\n');
    if (nl == std::string::npos)
        return 0;
    std::istringstream head(text.substr(0, nl));
    std::istringstream row(text.substr(nl + 1));
    std::string col, val;
    while (std::getline(head, col, ',') &&
           std::getline(row, val, ','))
        if (col == name)
            return std::strtoull(val.c_str(), nullptr, 10);
    return 0;
}

std::vector<int>
parseIntList(const std::string &csv)
{
    std::vector<int> out;
    std::istringstream iss(csv);
    std::string tok;
    while (std::getline(iss, tok, ','))
        out.push_back(std::atoi(tok.c_str()));
    return out;
}

/** Poll @p path until it holds a positive port number; -1 on timeout. */
int
awaitPortFile(const std::string &path, double wait_s = 30.0)
{
    for (int i = 0; i < static_cast<int>(wait_s * 100); ++i) {
        std::ifstream in(path);
        int port = 0;
        if (in >> port && port > 0)
            return port;
        usleep(10 * 1000);
    }
    return -1;
}

/** Reap @p pid within @p wait_s seconds; SIGKILL + -3 on overrun. */
int
reapWithin(pid_t pid, double wait_s)
{
    int status = 0;
    for (int i = 0; i < static_cast<int>(wait_s * 100); ++i) {
        if (waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        usleep(10 * 1000);
    }
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return -3;
}

/** Completed trials recorded in the newest valid checkpoint. */
int
completedTrials(const std::string &ck_path)
{
    // Cheap extraction (the CRC is validated by the CLI itself):
    // find the "completedIterations" key in the JSON text.
    const std::string text = readFile(ck_path);
    const auto pos = text.find("\"completedIterations\"");
    if (pos == std::string::npos)
        return 0;
    return std::atoi(text.c_str() + text.find(':', pos) + 1);
}

} // namespace

int
main(int argc, char **argv)
{
    const unico::common::CliArgs args(argc, argv);
    const int n_iters = static_cast<int>(args.getInt("iters", 10));
    const std::string iters = std::to_string(n_iters);
    const std::string batch =
        std::to_string(args.getInt("batch", 16));
    const std::string bmax = std::to_string(args.getInt("bmax", 400));
    const std::string seed = std::to_string(args.getInt("seed", 3));
    const std::vector<int> kill_counts =
        parseIntList(args.getString("kills", "0,1,2,4,8"));
    const std::vector<int> worker_kill_counts =
        parseIntList(args.getString("worker-kills", "0,2,4,8"));
    const std::string workers =
        std::to_string(args.getInt("workers", 4));
    for (const int k : kill_counts) {
        // Each kill needs a persisted trial of its own, and the final
        // run one more.
        if (k < 0 || k >= n_iters) {
            std::cerr << "--kills values must lie in [0, --iters); got "
                      << k << " with --iters " << n_iters << "\n";
            return 2;
        }
    }

    const std::string dir = "/tmp/unico_bench_chaos";
    mkdir(dir.c_str(), 0755);
    auto cli = [&](const std::string &tag, bool resume) {
        std::vector<std::string> a = {
            UNICO_CLI_PATH, "resnet",
            "--batch",      batch,
            "--iters",      iters,
            "--bmax",       bmax,
            "--seed",       seed,
            "--checkpoint", dir + "/" + tag + ".json",
            "--csv-prefix", dir + "/" + tag,
        };
        if (resume)
            a.push_back("--resume");
        return a;
    };
    auto cleanup = [&](const std::string &tag) {
        for (const char *suffix :
             {".json", ".json.1", ".json.2", ".json.tmp",
              "_records.csv", "_front.csv", "_trace.csv",
              "_cache.csv", "_faults.csv"})
            std::remove((dir + "/" + tag + suffix).c_str());
    };

    // Reference: uninterrupted run.
    cleanup("base");
    int code = 0;
    const auto t0 = std::chrono::steady_clock::now();
    runMaybeKill(cli("base", false), -1, code);
    const double base_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (code != 0) {
        std::cerr << "baseline run failed (" << code << ")\n";
        return 1;
    }
    const std::string base_records =
        readFile(dir + "/base_records.csv");
    const int total_trials = completedTrials(dir + "/base.json");

    unico::common::Json bench_json = unico::common::Json::array();

    std::ostringstream csv;
    csv << "kills,runs,wall_ms,overhead_x,replayed_trials,"
           "identical\n";
    std::printf("Master-kill sweep (crash-consistency overhead)\n");
    std::printf("%6s %6s %10s %10s %9s %10s\n", "kills", "runs",
                "wall(ms)", "overhead", "replayed", "identical");

    for (const int target_kills : kill_counts) {
        const std::string tag = "k" + std::to_string(target_kills);
        cleanup(tag);
        Lcg rng(0x5eed0000ULL + target_kills);
        int kills = 0, runs = 0, replayed = 0;
        int prev_completed = 0;
        const auto start = std::chrono::steady_clock::now();
        for (;;) {
            const bool resume =
                fileExists(dir + "/" + tag + ".json") ||
                fileExists(dir + "/" + tag + ".json.1");
            int kill_at = -1;
            if (kills < target_kills) {
                // Kill after j new checkpoints, 1 <= j <= slack: the
                // run persists at least one trial and leaves one for
                // each later kill plus one for the final run.
                const int later = target_kills - kills - 1;
                const int slack =
                    n_iters - 1 - prev_completed - later;
                kill_at = 1 + static_cast<int>(
                                  rng.next() %
                                  static_cast<std::uint64_t>(
                                      std::max(slack, 1)));
            }
            ++runs;
            const bool killed =
                runMaybeKill(cli(tag, resume), kill_at, code);
            if (killed) {
                ++kills;
                // Trials finished by the killed process but not yet
                // on disk will be re-executed by the next run.
                const int now = fileExists(dir + "/" + tag + ".json")
                                    ? completedTrials(dir + "/" +
                                                      tag + ".json")
                                    : 0;
                if (now < prev_completed)
                    replayed += prev_completed - now;
                prev_completed = now;
                continue;
            }
            if (code != 0) {
                std::cerr << tag << ": run failed (" << code << ")\n";
                return 1;
            }
            break;
        }
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        const bool identical =
            readFile(dir + "/" + tag + "_records.csv") ==
            base_records;
        if (!identical) {
            std::cerr << tag
                      << ": records diverged from baseline\n";
            return 1;
        }
        std::printf("%6d %6d %10.1f %9.2fx %9d %10s\n", kills, runs,
                    wall_ms, wall_ms / base_ms, replayed,
                    identical ? "yes" : "NO");
        if (kills < target_kills) {
            std::cerr << tag << ": delivered " << kills << " of "
                      << target_kills << " kills\n";
            return 1;
        }
        csv << kills << ',' << runs << ',' << wall_ms << ','
            << wall_ms / base_ms << ',' << replayed << ','
            << (identical ? 1 : 0) << "\n";
        {
            auto row = unico::common::Json::object();
            row["name"] =
                "chaos/master_kills/" + std::to_string(target_kills);
            row["run_type"] = "iteration";
            row["kills"] = kills;
            row["runs"] = runs;
            row["real_time"] = wall_ms;
            row["time_unit"] = "ms";
            row["overhead_x"] = wall_ms / base_ms;
            row["replayed_trials"] = replayed;
            row["identical"] = identical;
            bench_json.push(std::move(row));
        }
        cleanup(tag);
    }
    std::printf("(baseline %.1f ms, %d trials)\n", base_ms,
                total_trials);

    // --- Fleet sweep: same search served by worker processes; the
    // master SIGKILLs K of them at deterministic points mid-run. The
    // master survives, so there is no resume loop — a kill costs a
    // respawn plus one replayed request, never a result.
    std::printf("\nWorker-kill sweep (fleet mode, --workers %s)\n",
                workers.c_str());
    std::printf("%6s %10s %10s %8s %9s %8s %10s\n", "kills",
                "wall(ms)", "overhead", "crashes", "respawns",
                "rt/eval", "identical");
    csv << "worker_kills,wall_ms,overhead_x,crashes,respawns,"
           "round_trips,ops_applied,round_trips_per_eval,identical\n";
    for (const int wkills : worker_kill_counts) {
        const std::string tag = "w" + std::to_string(wkills);
        cleanup(tag);
        auto a = cli(tag, false);
        a.insert(a.end(), {"--workers", workers,
                           "--worker-chaos-kills",
                           std::to_string(wkills)});
        const auto start = std::chrono::steady_clock::now();
        runMaybeKill(a, -1, code);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (code != 0) {
            std::cerr << tag << ": run failed (" << code << ")\n";
            return 1;
        }
        const bool identical =
            readFile(dir + "/" + tag + "_records.csv") ==
            base_records;
        if (!identical) {
            std::cerr << tag
                      << ": records diverged from baseline\n";
            return 1;
        }
        const std::uint64_t crashes = faultsCsvColumn(
            dir + "/" + tag + "_faults.csv", "worker_crashes");
        const std::uint64_t respawns = faultsCsvColumn(
            dir + "/" + tag + "_faults.csv", "worker_respawns");
        // Batching leverage: with op coalescing one framed round-trip
        // carries several mutating ops, so round-trips per acked op
        // drops well below the 1.0 a per-op protocol pays.
        const std::uint64_t round_trips = faultsCsvColumn(
            dir + "/" + tag + "_faults.csv", "request_round_trips");
        const std::uint64_t ops_applied = faultsCsvColumn(
            dir + "/" + tag + "_faults.csv", "ops_applied");
        const double rt_per_eval =
            static_cast<double>(round_trips) /
            static_cast<double>(std::max<std::uint64_t>(1, ops_applied));
        std::printf("%6d %10.1f %9.2fx %8llu %9llu %8.3f %10s\n",
                    wkills, wall_ms, wall_ms / base_ms,
                    static_cast<unsigned long long>(crashes),
                    static_cast<unsigned long long>(respawns),
                    rt_per_eval, identical ? "yes" : "NO");
        csv << wkills << ',' << wall_ms << ',' << wall_ms / base_ms
            << ',' << crashes << ',' << respawns << ',' << round_trips
            << ',' << ops_applied << ',' << rt_per_eval << ','
            << (identical ? 1 : 0) << "\n";
        auto row = unico::common::Json::object();
        row["name"] =
            "chaos/worker_kills/" + std::to_string(wkills);
        row["run_type"] = "iteration";
        row["workers"] = std::atoi(workers.c_str());
        row["kills"] = wkills;
        row["real_time"] = wall_ms;
        row["time_unit"] = "ms";
        row["overhead_x"] = wall_ms / base_ms;
        row["worker_crashes"] = crashes;
        row["worker_respawns"] = respawns;
        row["request_round_trips"] = round_trips;
        row["ops_applied"] = ops_applied;
        row["round_trips_per_eval"] = rt_per_eval;
        row["identical"] = identical;
        bench_json.push(std::move(row));
        cleanup(tag);
    }

    // --- Network-fault sweep: real master + worker PROCESSES over
    // TCP through the chaos proxy. Each profile stresses one fault
    // class; "storm" layers all of them. Identity vs the in-process
    // baseline is asserted at every row.
    if (!args.has("no-net")) {
        struct NetProfile
        {
            const char *name;
            const char *chaos;
        };
        const NetProfile profiles[] = {
            {"tcp_clean", "seed=7"},
            {"delay", "seed=7,delay=0.5:0.01"},
            {"drop", "seed=7,drop=0.05"},
            {"partition", "seed=7,partition=80:0.3"},
            {"storm", "seed=7,drop=0.02,tear=0.01,flip=0.02,dup=0.05,"
                      "reorder=0.05,delay=0.2:0.005,partition=100:0.3"},
        };
        std::printf("\nNetwork-fault sweep (TCP fleet through chaos "
                    "proxy, 2 workers)\n");
        std::printf("%10s %10s %10s %6s %6s %7s %8s %10s\n", "profile",
                    "wall(ms)", "overhead", "lost", "reconn", "stale",
                    "rt/eval", "identical");
        csv << "net_profile,wall_ms,overhead_x,connections_lost,"
               "reconnects,stale_frames,torn_frames,corrupt_frames,"
               "round_trips_per_eval,identical\n";
        for (const NetProfile &p : profiles) {
            const std::string tag = std::string("n_") + p.name;
            cleanup(tag);
            std::remove((dir + "/master.port").c_str());
            std::remove((dir + "/proxy.port").c_str());

            auto margs = cli(tag, false);
            margs.insert(margs.end(),
                         {"--workers", "2", "--fleet-listen",
                          "127.0.0.1:0", "--fleet-connect-wait", "30",
                          "--fleet-reconnect-wait", "2",
                          "--worker-eval-deadline", "2", "--threads",
                          "2", "--fleet-port-file",
                          dir + "/master.port"});
            const auto start = std::chrono::steady_clock::now();
            const pid_t master = spawn(margs);
            const int mport = awaitPortFile(dir + "/master.port");
            if (mport <= 0) {
                std::cerr << tag << ": master never published a port\n";
                return 1;
            }
            const pid_t proxy = spawn(
                {UNICO_PROXY_PATH, "--upstream",
                 "127.0.0.1:" + std::to_string(mport), "--port-file",
                 dir + "/proxy.port", "--chaos", p.chaos});
            const int pport = awaitPortFile(dir + "/proxy.port");
            if (pport <= 0) {
                std::cerr << tag << ": proxy never published a port\n";
                return 1;
            }
            std::vector<pid_t> ws;
            for (int i = 0; i < 2; ++i)
                ws.push_back(spawn(
                    {UNICO_CLI_PATH, "resnet", "--fleet-connect",
                     "127.0.0.1:" + std::to_string(pport),
                     "--fleet-reconnect-attempts", "40",
                     "--fleet-reconnect-max", "0.5"}));
            const int mcode = reapWithin(master, 600.0);
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            kill(proxy, SIGTERM);
            reapWithin(proxy, 30.0);
            for (const pid_t w : ws)
                reapWithin(w, 120.0);
            if (mcode != 0) {
                std::cerr << tag << ": master failed (" << mcode
                          << ")\n";
                return 1;
            }
            const bool identical =
                readFile(dir + "/" + tag + "_records.csv") ==
                base_records;
            if (!identical) {
                std::cerr << tag
                          << ": records diverged from baseline\n";
                return 1;
            }
            const std::string faults = dir + "/" + tag + "_faults.csv";
            const std::uint64_t lost =
                faultsCsvColumn(faults, "connections_lost");
            const std::uint64_t reconnects =
                faultsCsvColumn(faults, "reconnects");
            const std::uint64_t stale =
                faultsCsvColumn(faults, "stale_frames");
            const std::uint64_t torn =
                faultsCsvColumn(faults, "torn_frames");
            const std::uint64_t corrupt =
                faultsCsvColumn(faults, "corrupt_frames");
            const std::uint64_t round_trips =
                faultsCsvColumn(faults, "request_round_trips");
            const std::uint64_t ops_applied =
                faultsCsvColumn(faults, "ops_applied");
            const double rt_per_eval =
                static_cast<double>(round_trips) /
                static_cast<double>(
                    std::max<std::uint64_t>(1, ops_applied));
            std::printf(
                "%10s %10.1f %9.2fx %6llu %6llu %7llu %8.3f %10s\n",
                p.name, wall_ms, wall_ms / base_ms,
                static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(reconnects),
                static_cast<unsigned long long>(stale), rt_per_eval,
                identical ? "yes" : "NO");
            csv << p.name << ',' << wall_ms << ','
                << wall_ms / base_ms << ',' << lost << ','
                << reconnects << ',' << stale << ',' << torn << ','
                << corrupt << ',' << rt_per_eval << ','
                << (identical ? 1 : 0) << "\n";
            auto row = unico::common::Json::object();
            row["name"] = std::string("chaos/net/") + p.name;
            row["run_type"] = "iteration";
            row["chaos_profile"] = p.chaos;
            row["real_time"] = wall_ms;
            row["time_unit"] = "ms";
            row["overhead_x"] = wall_ms / base_ms;
            row["connections_lost"] = lost;
            row["reconnects"] = reconnects;
            row["stale_frames"] = stale;
            row["torn_frames"] = torn;
            row["corrupt_frames"] = corrupt;
            row["request_round_trips"] = round_trips;
            row["ops_applied"] = ops_applied;
            row["round_trips_per_eval"] = rt_per_eval;
            row["identical"] = identical;
            bench_json.push(std::move(row));
            cleanup(tag);
        }
    }
    cleanup("base");

    // Machine-readable output next to BENCH_micro.json; CI uploads it
    // so the perf trajectory tracks robustness overhead over time.
    const std::string json_out =
        args.getString("json", "BENCH_chaos.json");
    if (!json_out.empty()) {
        auto doc = unico::common::Json::object();
        auto ctx = unico::common::Json::object();
        ctx["executable"] = "bench_chaos";
        ctx["baseline_ms"] = base_ms;
        ctx["baseline_trials"] = total_trials;
        ctx["iters"] = std::atoi(iters.c_str());
        ctx["batch"] = std::atoi(batch.c_str());
        ctx["seed"] = std::atoi(seed.c_str());
        doc["context"] = std::move(ctx);
        doc["benchmarks"] = std::move(bench_json);
        std::ofstream f(json_out);
        f << doc.dump(2) << "\n";
        std::cout << "json written to " << json_out << "\n";
    }

    const std::string out = args.getString("csv", "");
    if (!out.empty()) {
        std::ofstream f(out);
        f << csv.str();
        std::cout << "csv written to " << out << "\n";
    }
    return 0;
}
