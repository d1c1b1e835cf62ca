/**
 * @file
 * Chaos harness: forks the real co_search_cli binary, SIGKILLs it
 * mid-search right after a seeded number of its progress events,
 * resumes from the checkpoint rotation window, and asserts the final
 * outputs are byte-identical to an uninterrupted run with the same
 * seed — records CSV, Pareto-front CSV, trace CSV and the final
 * checkpoint document itself.
 *
 * Also covers the graceful path (SIGTERM drains and exits with the
 * resumable status code 75) and recovery from a corrupted newest
 * checkpoint generation (bit flip / truncation -> fall back to the
 * previous generation).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

/** Compile-time path of the CLI under test. */
const char *const kCli = UNICO_CLI_PATH;

/** Compile-time path of the chaos proxy binary. */
const char *const kProxy = UNICO_PROXY_PATH;

/** Deterministic LCG for kill points (std::rand is process-global
 *  state; the harness must not depend on it). */
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
makeTempDir(const std::string &tag)
{
    std::string tmpl = "/tmp/unico_chaos_" + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "missing file: " << path;
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

/** The search configuration every scenario runs: 10 trials, each of
 *  which streams several progress events, so a kill keyed on an event
 *  count lands mid-search however fast the build is. */
std::vector<std::string>
cliArgs(const std::string &dir, bool resume)
{
    std::vector<std::string> args = {
        kCli,           "resnet",
        "--batch",      "16",
        "--iters",      "10",
        "--bmax",       "400",
        "--seed",       "3",
        "--checkpoint", dir + "/ck.json",
        "--csv-prefix", dir + "/out",
    };
    if (resume)
        args.push_back("--resume");
    return args;
}

/** Fork + exec @p args. The child's stdout goes to @p stdout_fd, or
 *  to /dev/null when it is negative. */
pid_t
spawn(const std::vector<std::string> &args, int stdout_fd = -1)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    // Flush before fork: the child would otherwise replay the
    // parent's buffered output when freopen flushes the stream.
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        // Child: silence stdout unless the caller reads it, so test
        // output stays readable.
        if (stdout_fd >= 0)
            dup2(stdout_fd, STDOUT_FILENO);
        else
            std::freopen("/dev/null", "w", stdout);
        execv(argv[0], argv.data());
        _exit(127); // exec failed
    }
    return pid;
}

/** Poll @p path until a process writes a positive port number into
 *  it (the CLI's --fleet-port-file / proxy's --port-file handoff). */
int
awaitPortFile(const std::string &path, double wait_seconds = 30.0)
{
    for (int i = 0; i < static_cast<int>(wait_seconds * 100); ++i) {
        std::ifstream in(path);
        int port = 0;
        if (in >> port && port > 0)
            return port;
        usleep(10000);
    }
    ADD_FAILURE() << "port file never appeared: " << path;
    return -1;
}

/** Reap @p pid, SIGKILLing it if it outlives @p wait_seconds. */
int
reapWithin(pid_t pid, double wait_seconds)
{
    int status = 0;
    for (int i = 0; i < static_cast<int>(wait_seconds * 100); ++i) {
        if (waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
        usleep(10000);
    }
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return -3; // had to shoot it
}

/** Outcome of one supervised child run. */
struct RunOutcome
{
    bool killed = false; ///< we SIGKILLed it mid-run
    int exitCode = -1;   ///< valid when !killed
};

/**
 * Run the CLI. With @p kill_after_events > 0 it streams its progress
 * events (--progress-every 1) and is SIGKILLed right after it prints
 * that many, unless it exits first; otherwise it runs to completion.
 */
RunOutcome
runMaybeKill(std::vector<std::string> args, int kill_after_events)
{
    RunOutcome out;
    int status = 0;
    if (kill_after_events <= 0) {
        const pid_t pid = spawn(args);
        EXPECT_GT(pid, 0);
        waitpid(pid, &status, 0);
        out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -2;
        return out;
    }
    args.push_back("--progress-every");
    args.push_back("1");
    int fds[2];
    EXPECT_EQ(pipe2(fds, O_CLOEXEC), 0);
    const pid_t pid = spawn(args, fds[1]);
    ::close(fds[1]);
    EXPECT_GT(pid, 0);
    // Drain stdout to EOF even after the kill, so the child never
    // blocks on a full pipe.
    const std::string marker = "\"event\":";
    int events = 0;
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
            if (line.find(marker) != std::string::npos &&
                ++events == kill_after_events) {
                kill(pid, SIGKILL);
                sent = true;
            }
            line.clear();
        }
    }
    ::close(fds[0]);
    waitpid(pid, &status, 0);
    // A child that exited before the signal arrived was not killed.
    out.killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    if (!out.killed)
        out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -2;
    return out;
}

void
removeArtifacts(const std::string &dir)
{
    for (const char *f :
         {"/ck.json", "/ck.json.1", "/ck.json.2", "/ck.json.tmp",
          "/out_records.csv", "/out_front.csv", "/out_trace.csv",
          "/out_cache.csv", "/out_faults.csv"})
        std::remove((dir + f).c_str());
}

/** Uninterrupted reference run in its own directory. */
std::string
makeBaseline(const std::string &tag)
{
    const std::string dir = makeTempDir(tag);
    const auto out = runMaybeKill(cliArgs(dir, false), -1);
    EXPECT_FALSE(out.killed);
    EXPECT_EQ(out.exitCode, 0);
    return dir;
}

void
expectSameOutputs(const std::string &base_dir,
                  const std::string &chaos_dir, bool compare_checkpoint)
{
    for (const char *f :
         {"/out_records.csv", "/out_front.csv", "/out_trace.csv"})
        EXPECT_EQ(readFile(base_dir + f), readFile(chaos_dir + f))
            << "divergent output: " << f;
    if (compare_checkpoint) {
        EXPECT_EQ(readFile(base_dir + "/ck.json"),
                  readFile(chaos_dir + "/ck.json"))
            << "divergent final checkpoint";
    }
}

/** Column @p name of the one-row faults CSV at @p path. */
std::uint64_t
faultsCsvColumn(const std::string &path, const std::string &name)
{
    const std::string text = readFile(path);
    const std::size_t nl = text.find('\n');
    EXPECT_NE(nl, std::string::npos) << path;
    std::istringstream header(text.substr(0, nl));
    std::istringstream row(text.substr(nl + 1));
    std::string col, val;
    while (std::getline(header, col, ',') && std::getline(row, val, ','))
        if (col == name || col == name + "\r")
            return std::strtoull(val.c_str(), nullptr, 10);
    ADD_FAILURE() << "column '" << name << "' not in " << path;
    return 0;
}

} // namespace

TEST(Chaos, SigkillAndResumeReproducesUninterruptedRun)
{
    const std::string base = makeBaseline("base");
    const std::string dir = makeTempDir("kill");
    Lcg rng(0x5eedULL);

    int kills = 0;
    bool completed = false;
    // Seeded kill points: each spawn (fresh or resumed) dies right
    // after its 1st to 14th progress event; once at least 3 kills
    // landed, let the search finish.
    for (int attempt = 0; attempt < 60 && !completed; ++attempt) {
        const bool resume = fileExists(dir + "/ck.json") ||
                            fileExists(dir + "/ck.json.1");
        const int events =
            kills < 3 ? 1 + static_cast<int>(rng.next() % 14) : -1;
        const auto out = runMaybeKill(cliArgs(dir, resume), events);
        if (out.killed) {
            ++kills;
        } else {
            ASSERT_EQ(out.exitCode, 0);
            completed = kills >= 3;
            if (!completed) {
                // Finished before enough kills landed: restart the
                // scenario from scratch with fresh randomness.
                removeArtifacts(dir);
            }
        }
    }
    ASSERT_TRUE(completed) << "chaos loop never completed";
    ASSERT_GE(kills, 3);
    // Byte-identical outputs *and* final checkpoint: the interrupted
    // trial was rolled back and replayed, never double-counted.
    expectSameOutputs(base, dir, true);
}

TEST(Chaos, SigtermDrainsCheckpointsAndExitsResumable)
{
    const std::string base = makeBaseline("gbase");
    const std::string dir = makeTempDir("term");

    // SIGTERM right after the first checkpoint event, read from the
    // CLI's progress stream: the run is then mid-search with a
    // resumable generation on disk, however slow the build is.
    std::vector<std::string> args = cliArgs(dir, false);
    args.push_back("--progress-every");
    args.push_back("1");
    int fds[2];
    ASSERT_EQ(pipe2(fds, O_CLOEXEC), 0);
    const pid_t pid = spawn(args, fds[1]);
    ::close(fds[1]);
    ASSERT_GT(pid, 0);
    // Drain stdout to EOF even after the signal, so the draining
    // child never blocks on a full pipe or takes SIGPIPE.
    const std::string marker = "\"event\":\"checkpoint\"";
    bool signalled = false;
    std::string seen;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        if (signalled)
            continue;
        seen.append(buf, static_cast<std::size_t>(n));
        if (seen.find(marker) != std::string::npos) {
            kill(pid, SIGTERM);
            signalled = true;
        }
    }
    ::close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    ASSERT_TRUE(signalled) << "no checkpoint event on stdout";
    ASSERT_TRUE(WIFEXITED(status))
        << "SIGTERM must be handled, not kill the process";
    ASSERT_EQ(WEXITSTATUS(status), 75);
    // Graceful drain left a resumable checkpoint behind.
    ASSERT_TRUE(fileExists(dir + "/ck.json"));

    // Resuming after the graceful stop completes the identical run.
    const auto out = runMaybeKill(cliArgs(dir, true), -1);
    ASSERT_EQ(out.exitCode, 0);
    expectSameOutputs(base, dir, true);
}

TEST(Chaos, CorruptedNewestCheckpointFallsBackToPreviousGeneration)
{
    const std::string base = makeBaseline("cbase");
    const std::string dir = makeTempDir("corrupt");

    // Complete run: rotation window now holds generations 0..2.
    ASSERT_EQ(runMaybeKill(cliArgs(dir, false), -1).exitCode, 0);
    ASSERT_TRUE(fileExists(dir + "/ck.json.1"));

    // Flip one byte in the middle of the newest generation.
    {
        std::string bytes = readFile(dir + "/ck.json");
        ASSERT_GT(bytes.size(), 100u);
        bytes[bytes.size() / 2] ^= 0x40;
        std::ofstream(dir + "/ck.json", std::ios::binary) << bytes;
    }

    // Resume detects the bit flip via CRC, falls back to generation
    // 1 (one trial earlier), replays it, and converges to the same
    // outputs. The final checkpoint is not compared: its fault
    // counters record the recovery.
    const auto out = runMaybeKill(cliArgs(dir, true), -1);
    ASSERT_EQ(out.exitCode, 0);
    expectSameOutputs(base, dir, false);

    // Truncation of *every* generation must refuse to resume rather
    // than silently restart from scratch.
    for (const char *f : {"/ck.json", "/ck.json.1", "/ck.json.2"})
        std::ofstream(dir + f, std::ios::binary) << "{ torn write";
    const auto refused = runMaybeKill(cliArgs(dir, true), -1);
    EXPECT_EQ(refused.exitCode, 1);
}

TEST(Chaos, FleetWithWorkerKillsMatchesInProcessRun)
{
    // THE fleet acceptance check: the same fixed-seed search through
    // 4 worker processes — with real SIGKILLs delivered to live
    // workers at seeded points mid-run, and a multithreaded master
    // stealing work across them — must produce byte-identical
    // records/front/trace CSVs AND a byte-identical final checkpoint
    // versus the plain in-process run.
    const std::string base = makeBaseline("fbase");
    const std::string dir = makeTempDir("fleet");

    std::vector<std::string> args = cliArgs(dir, false);
    for (const char *extra : {"--workers", "4", "--worker-chaos-kills",
                              "4", "--threads", "2"})
        args.push_back(extra);
    const auto out = runMaybeKill(args, -1);
    ASSERT_EQ(out.exitCode, 0);
    expectSameOutputs(base, dir, true);

    // The transport ledger must show the kills were real and were
    // absorbed by respawns — not silently skipped.
    EXPECT_GE(faultsCsvColumn(dir + "/out_faults.csv",
                              "worker_crashes"),
              3u);
    EXPECT_GE(faultsCsvColumn(dir + "/out_faults.csv",
                              "worker_respawns"),
              3u);
    EXPECT_EQ(faultsCsvColumn(base + "/out_faults.csv",
                              "worker_crashes"),
              0u);
}

TEST(Chaos, TcpFleetThroughChaosProxyWithWorkerKillStaysByteIdentical)
{
    // The multi-host acceptance check: master and workers are REAL
    // processes talking TCP through the chaos proxy, which injects
    // seeded delays, drops, duplicates, reorders, torn frames, bit
    // flips and hard partitions (each partition severs every
    // connection and forces the workers through their reconnect
    // backoff). On top of the network chaos, one worker process is
    // SIGKILLed mid-run and a replacement dials in. Records, front,
    // trace CSVs AND the final checkpoint must be byte-identical to
    // the plain in-process run.
    const std::string base = makeBaseline("pbase");
    const std::string dir = makeTempDir("proxy");

    // Master: TCP listener on a free port, short deadlines so chaos
    // losses fail over fast instead of serializing 30 s stalls. Its
    // progress events stream into a pipe: the worker kill below fires
    // on one of them.
    std::vector<std::string> margs = cliArgs(dir, false);
    for (const char *extra :
         {"--workers", "2", "--fleet-listen", "127.0.0.1:0",
          "--fleet-connect-wait", "30", "--fleet-reconnect-wait", "2",
          "--worker-eval-deadline", "2", "--threads", "2",
          "--progress-every", "1"}) {
        margs.push_back(extra);
    }
    margs.push_back("--fleet-port-file");
    margs.push_back(dir + "/master.port");
    int fds[2];
    ASSERT_EQ(pipe2(fds, O_CLOEXEC), 0);
    const pid_t master = spawn(margs, fds[1]);
    ::close(fds[1]);
    ASSERT_GT(master, 0);
    const int mport = awaitPortFile(dir + "/master.port");
    ASSERT_GT(mport, 0);

    // Chaos proxy between the workers and the master. The partition
    // cadence guarantees at least one hard partition well inside the
    // run; the drop rate stays low because every drop costs a full
    // request deadline.
    const pid_t proxy = spawn(
        {kProxy, "--upstream", "127.0.0.1:" + std::to_string(mport),
         "--port-file", dir + "/proxy.port", "--chaos",
         "seed=31,drop=0.01,tear=0.01,flip=0.02,dup=0.03,"
         "reorder=0.03,delay=0.15:0.005,partition=120:0.3"});
    ASSERT_GT(proxy, 0);
    const int pport = awaitPortFile(dir + "/proxy.port");
    ASSERT_GT(pport, 0);

    // Enough reconnect budget to ride out every partition, but small
    // enough (40 x <=0.5 s jittered backoff) that a worker who missed
    // the master's bye (chaos can eat it) drains its attempts against
    // the dead endpoint and exits 0 well inside the reap window.
    const auto workerArgs = [&] {
        return std::vector<std::string>{
            kCli,
            "resnet",
            "--fleet-connect",
            "127.0.0.1:" + std::to_string(pport),
            "--fleet-reconnect-attempts",
            "40",
            "--fleet-reconnect-max",
            "0.5",
        };
    };
    pid_t w1 = spawn(workerArgs());
    const pid_t w2 = spawn(workerArgs());
    ASSERT_GT(w1, 0);
    ASSERT_GT(w2, 0);

    // SIGKILL one worker process on the master's first trial event,
    // once the fleet has done real work and has more to do: its slot
    // must fail over (retry on the survivor, reopen, or in-process
    // replay). The drain thread reads the master's stdout to EOF, so
    // the master never blocks on a full pipe.
    std::promise<bool> fired;
    std::thread drain([&fired, fd = fds[0], victim = w1] {
        const std::string marker = "\"event\":\"trial\"";
        bool sent = false;
        std::string line;
        char buf[4096];
        for (;;) {
            const ssize_t n = read(fd, buf, sizeof buf);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            for (ssize_t i = 0; i < n && !sent; ++i) {
                if (buf[i] != '\n') {
                    line += buf[i];
                    continue;
                }
                if (line.find(marker) != std::string::npos) {
                    kill(victim, SIGKILL);
                    sent = true;
                    fired.set_value(true);
                }
                line.clear();
            }
        }
        ::close(fd);
        if (!sent)
            fired.set_value(false);
    });
    std::future<bool> killed = fired.get_future();
    if (killed.wait_for(std::chrono::seconds(300)) !=
        std::future_status::ready)
        kill(master, SIGKILL); // ends the stream, and the thread
    const bool w1_killed = killed.get();
    EXPECT_TRUE(w1_killed) << "the master printed no trial event";
    if (!w1_killed)
        kill(w1, SIGKILL);
    int w1_status = 0;
    waitpid(w1, &w1_status, 0);
    EXPECT_TRUE(WIFSIGNALED(w1_status) && WTERMSIG(w1_status) == SIGKILL)
        << "worker w1 exited before the kill";
    // w1 is reaped; the master must still be searching.
    siginfo_t info = {};
    EXPECT_EQ(waitid(P_PID, static_cast<id_t>(master), &info,
                     WEXITED | WNOHANG | WNOWAIT),
              0);
    EXPECT_EQ(info.si_pid, 0) << "the master finished before w1 died";
    // Dial a replacement in.
    w1 = spawn(workerArgs());
    EXPECT_GT(w1, 0);

    // The master must complete successfully despite everything.
    const int master_rc = reapWithin(master, 300.0);
    drain.join();
    EXPECT_EQ(master_rc, 0);

    // Proxy: SIGTERM prints the ledger and exits 0. Workers exit 0
    // on the master's bye (or connection exhaustion after it).
    kill(proxy, SIGTERM);
    EXPECT_EQ(reapWithin(proxy, 30.0), 0);
    EXPECT_EQ(reapWithin(w1, 120.0), 0);
    EXPECT_EQ(reapWithin(w2, 120.0), 0);

    expectSameOutputs(base, dir, true);

    // The ledger must show the fleet really absorbed network faults:
    // corrupt frames from bit flips, stale frames from dup/reorder,
    // lost connections + reconnects from partitions/tears/the kill.
    const std::string faults = dir + "/out_faults.csv";
    EXPECT_GE(faultsCsvColumn(faults, "connections_lost") +
                  faultsCsvColumn(faults, "request_timeouts") +
                  faultsCsvColumn(faults, "torn_frames") +
                  faultsCsvColumn(faults, "corrupt_frames"),
              1u);
    EXPECT_GE(faultsCsvColumn(faults, "reconnects") +
                  faultsCsvColumn(faults, "worker_respawns") +
                  faultsCsvColumn(faults, "inproc_fallbacks"),
              1u);
}

TEST(Chaos, MasterKillInFleetModeResumesAcrossTopologies)
{
    // Kill the whole MASTER process mid-run in fleet mode, then
    // resume in-process (and vice versa would hold too): checkpoint
    // identity deliberately excludes the execution topology, so the
    // resumed search must converge to the baseline bit-for-bit.
    const std::string base = makeBaseline("mbase");
    const std::string dir = makeTempDir("mkill");
    Lcg rng(0xf1ee7ULL);

    int kills = 0;
    bool completed = false;
    for (int attempt = 0; attempt < 60 && !completed; ++attempt) {
        const bool resume = fileExists(dir + "/ck.json") ||
                            fileExists(dir + "/ck.json.1");
        std::vector<std::string> args = cliArgs(dir, resume);
        if (kills == 0) {
            // First leg runs through the fleet; later legs (after
            // the master died) complete in-process.
            for (const char *extra : {"--workers", "3"})
                args.push_back(extra);
        }
        const int events =
            kills < 1 ? 1 + static_cast<int>(rng.next() % 14) : -1;
        const auto out = runMaybeKill(args, events);
        if (out.killed) {
            ++kills;
        } else {
            ASSERT_EQ(out.exitCode, 0);
            completed = kills >= 1;
            if (!completed)
                removeArtifacts(dir);
        }
    }
    ASSERT_TRUE(completed) << "master-kill loop never completed";
    expectSameOutputs(base, dir, true);
}

// ---------------------------------------------------------------
// Scoped shutdown installation (in-process, no forking): install /
// restore is refcounted, and teardown re-arms so the process can
// install again.
// ---------------------------------------------------------------

#include "common/shutdown.hh"

namespace common = unico::common;

namespace {

/** Current SIGTERM disposition (handler pointer) of this process. */
void (*sigtermHandler())(int)
{
    struct sigaction current = {};
    sigaction(SIGTERM, nullptr, &current);
    return current.sa_handler;
}

} // namespace

TEST(Shutdown, ScopedInstallIsRefcountedAndRestoresHandlers)
{
    void (*const before)(int) = sigtermHandler();
    {
        common::ShutdownScope outer;
        void (*const installed)(int) = sigtermHandler();
        EXPECT_NE(installed, before) << "scope must install a handler";
        {
            // Nested scope: shares the installation, and its exit
            // must NOT restore while the outer scope is live.
            common::ShutdownScope inner;
            EXPECT_EQ(sigtermHandler(), installed);
        }
        EXPECT_EQ(sigtermHandler(), installed);
    }
    EXPECT_EQ(sigtermHandler(), before)
        << "last scope must restore the previous disposition";
    EXPECT_FALSE(common::shutdownRequested());
}

TEST(Shutdown, TeardownRearmsForAFreshScope)
{
    // One graceful signal per scope: handled, not fatal. Teardown
    // re-arms the process-wide token, so a fresh scope starts from a
    // clean slate and can be signalled again.
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        common::ShutdownScope scope;
        EXPECT_FALSE(common::shutdownRequested());
        ASSERT_EQ(raise(SIGTERM), 0);
        EXPECT_TRUE(common::shutdownRequested());
    }
    EXPECT_FALSE(common::shutdownRequested());
}
