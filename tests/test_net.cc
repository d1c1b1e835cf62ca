/**
 * @file
 * Tests for the multi-host fleet transport: endpoint and chaos-spec
 * parsing, the TCP handshake (identity acceptance and rejection,
 * refusal of the JSON-era protocol, session/epoch bookkeeping),
 * absolute frame deadlines against a slow-loris peer, and the
 * headline robustness property — a co-search
 * whose workers dial in over TCP *through the deterministic chaos
 * proxy* (drops, duplicates, reorders, torn frames, bit flips, hard
 * partitions, worker kills) produces byte-identical results to the
 * in-process run.
 *
 * Remote workers run as threads of this process: the worker client
 * loop (core::runFleetWorkerClient) is process-agnostic, and threads
 * keep the harness fast and sanitizer-friendly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "common/frame.hh"
#include "common/io.hh"
#include "common/json.hh"
#include "core/driver.hh"
#include "core/fleet.hh"
#include "core/spatial_env.hh"
#include "net/chaos_proxy.hh"
#include "net/socket.hh"
#include "net/tcp_transport.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using common::TransportStats;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;
using core::FleetConfig;
using core::FleetEnv;
using core::FleetWorkerOptions;
using core::SpatialEnv;
using core::BackendOptions;

namespace {

SpatialEnv &
sharedEnv()
{
    static SpatialEnv env = [] {
        BackendOptions opt;
        opt.maxShapesPerNetwork = 2;
        return SpatialEnv({workload::makeMobileNet()}, opt);
    }();
    return env;
}

DriverConfig
tinyConfig()
{
    DriverConfig cfg = DriverConfig::unico();
    cfg.batchSize = 6;
    cfg.maxIter = 2;
    cfg.sh.bMax = 48;
    cfg.minBudgetPerRound = 4;
    cfg.workers = 2;
    cfg.seed = 17;
    return cfg;
}

/** Bit-exact equality of every trajectory-visible field. */
void
expectIdenticalResults(const CoSearchResult &a, const CoSearchResult &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const auto &ra = a.records[i];
        const auto &rb = b.records[i];
        EXPECT_EQ(ra.hw, rb.hw) << "record " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.ppa.latencyMs),
                  std::bit_cast<std::uint64_t>(rb.ppa.latencyMs))
            << "record " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.sensitivity),
                  std::bit_cast<std::uint64_t>(rb.sensitivity))
            << "record " << i;
        EXPECT_EQ(ra.budgetSpent, rb.budgetSpent) << "record " << i;
        EXPECT_EQ(ra.faults, rb.faults) << "record " << i;
        EXPECT_EQ(ra.degraded, rb.degraded) << "record " << i;
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.trace[i].hours),
                  std::bit_cast<std::uint64_t>(b.trace[i].hours))
            << "trace " << i;
    EXPECT_EQ(a.front.entries().size(), b.front.entries().size());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.totalHours),
              std::bit_cast<std::uint64_t>(b.totalHours));
    EXPECT_EQ(a.evaluations, b.evaluations);
}

std::string
tempPortFile(const char *tag)
{
    std::string tmpl =
        std::string("/tmp/unico_net_") + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const int fd = ::mkstemp(buf.data());
    EXPECT_GE(fd, 0);
    if (fd >= 0)
        ::close(fd);
    std::remove(buf.data()); // transport rewrites it after bind
    return buf.data();
}

/** Poll @p path until the transport writes the bound port into it.
 *  The FleetEnv constructor blocks waiting for workers, so tests
 *  must learn the port from the file — exactly like a real deploy
 *  script — not from listenPort() (unreachable until the ctor
 *  returns). */
int
awaitPortFile(const std::string &path, double wait_seconds = 10.0)
{
    const double deadline = common::monotonicNow() + wait_seconds;
    while (common::monotonicNow() < deadline) {
        std::ifstream in(path);
        int port = 0;
        if (in >> port && port > 0)
            return port;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;
}

/** Spawn @p n worker-client threads. Each waits for the master's (or
 *  proxy's) port to land in @p port_file, then dials and serves until
 *  a clean bye (rc 0) or connection exhaustion. */
std::vector<std::thread>
spawnWorkerThreads(int n, const std::string &port_file,
                   std::vector<int> *exit_codes)
{
    exit_codes->assign(static_cast<std::size_t>(n), -1);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        threads.emplace_back([port_file, i, exit_codes] {
            const int port = awaitPortFile(port_file);
            ASSERT_GT(port, 0) << "port file never appeared";
            FleetWorkerOptions opts;
            opts.connectAddr = "127.0.0.1:" + std::to_string(port);
            opts.connectDeadlineSeconds = 5.0;
            opts.maxReconnectAttempts = 200;
            (*exit_codes)[static_cast<std::size_t>(i)] =
                core::runFleetWorkerClient(sharedEnv(), opts);
        });
    }
    return threads;
}

} // namespace

TEST(Net, ParseEndpoint)
{
    net::Endpoint ep;
    EXPECT_TRUE(net::parseEndpoint("127.0.0.1:8080", ep));
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 8080);
    EXPECT_TRUE(net::parseEndpoint(":0", ep));
    EXPECT_EQ(ep.port, 0);
    EXPECT_FALSE(net::parseEndpoint("nohost", ep));
    EXPECT_FALSE(net::parseEndpoint("host:notaport", ep));
    EXPECT_FALSE(net::parseEndpoint("host:70000", ep));
    EXPECT_FALSE(net::parseEndpoint("", ep));
}

TEST(Net, ParseChaosProfile)
{
    net::ChaosProfile p;
    std::string err;
    EXPECT_TRUE(net::ChaosProfile::parse(
        "seed=9,drop=0.1,tear=0.2,flip=0.3,dup=0.4,reorder=0.5,"
        "delay=0.6:0.02,partition=40:0.75",
        p, &err))
        << err;
    EXPECT_EQ(p.seed, 9u);
    EXPECT_DOUBLE_EQ(p.dropProbability, 0.1);
    EXPECT_DOUBLE_EQ(p.tearProbability, 0.2);
    EXPECT_DOUBLE_EQ(p.flipProbability, 0.3);
    EXPECT_DOUBLE_EQ(p.duplicateProbability, 0.4);
    EXPECT_DOUBLE_EQ(p.reorderProbability, 0.5);
    EXPECT_DOUBLE_EQ(p.delayProbability, 0.6);
    EXPECT_DOUBLE_EQ(p.delaySeconds, 0.02);
    EXPECT_EQ(p.partitionEveryFrames, 40u);
    EXPECT_DOUBLE_EQ(p.partitionSeconds, 0.75);

    EXPECT_FALSE(net::ChaosProfile::parse("bogus=1", p, &err));
    EXPECT_FALSE(net::ChaosProfile::parse("drop=notanumber", p, &err));
    EXPECT_FALSE(net::ChaosProfile::parse("drop=1.5", p, &err));
    EXPECT_TRUE(net::ChaosProfile::parse("", p, &err)); // all defaults
}

TEST(Net, FrameDeadlineBindsAgainstSlowLorisFrame)
{
    // A peer that delivers a frame header and then dribbles the
    // payload one byte at a time: header+payload share ONE absolute
    // deadline, so the read must time out rather than follow the
    // dribble forever.
    int fds[2];
    ASSERT_TRUE(common::makeSocketPair(fds));
    ASSERT_TRUE(common::setNonblocking(fds[0]));

    const std::string payload(4096, 'p');
    const std::string frame = common::encodeFrame(payload);
    std::atomic<bool> stop{false};
    std::thread loris([&] {
        // Header fast, then one payload byte per 5 ms.
        std::size_t off = 0;
        const std::size_t header = common::kFrameHeaderSize;
        (void)common::writeFullUntil(fds[1], frame.data(), header, 0.0);
        off = header;
        while (off < frame.size() && !stop.load()) {
            (void)::write(fds[1], frame.data() + off, 1);
            ++off;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });

    std::string got;
    const double start = common::monotonicNow();
    const auto st = common::readFrameUntil(fds[0], got, start + 0.25);
    const double elapsed = common::monotonicNow() - start;
    EXPECT_EQ(st, common::FrameStatus::Timeout);
    EXPECT_LT(elapsed, 2.0);
    stop.store(true);
    loris.join();
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Net, HandshakeAdoptsMatchingWorkerAndTracksEpochs)
{
    common::StackIdentity id;
    id.backend = "spatial";
    id.scenario = "edge";
    id.workloadDigest = "abc123";
    net::TcpFleetListener listener("127.0.0.1:0", id);
    std::string err;
    ASSERT_TRUE(listener.start(&err)) << err;
    const std::string addr =
        "127.0.0.1:" + std::to_string(listener.port());

    // First connect: epoch 0. Reconnect of the same session: epoch 1.
    for (std::uint64_t epoch : {0ULL, 1ULL}) {
        const int fd = net::connectWorker(addr, id, 0x5e55ULL, epoch,
                                          5.0, &err);
        ASSERT_GE(fd, 0) << err;
        net::TcpChannel ch;
        ASSERT_TRUE(listener.awaitChannel(5.0, ch));
        EXPECT_EQ(ch.session, 0x5e55ULL);
        EXPECT_EQ(ch.epoch, epoch);
        ::close(ch.fd);
        ::close(fd);
    }
    EXPECT_EQ(listener.acceptedChannels(), 2u);
    EXPECT_EQ(listener.rejectedHandshakes(), 0u);
}

TEST(Net, HandshakeRejectsWrongIdentityAndAcceptsWildcards)
{
    common::StackIdentity id;
    id.backend = "spatial";
    id.scenario = "edge";
    id.workloadDigest = "abc123";
    net::TcpFleetListener listener("127.0.0.1:0", id);
    std::string err;
    ASSERT_TRUE(listener.start(&err)) << err;
    const std::string addr =
        "127.0.0.1:" + std::to_string(listener.port());

    // Wrong digest: refused, and the client KNOWS it was refused
    // (must not retry).
    common::StackIdentity wrong = id;
    wrong.workloadDigest = "deadbeef";
    bool rejected = false;
    EXPECT_LT(net::connectWorker(addr, wrong, 1, 0, 5.0, &err,
                                 &rejected),
              0);
    EXPECT_TRUE(rejected);
    EXPECT_FALSE(err.empty());

    // Empty fields are wildcards (mirrors checkpoint identity).
    common::StackIdentity wildcard;
    rejected = false;
    const int fd =
        net::connectWorker(addr, wildcard, 2, 0, 5.0, &err, &rejected);
    EXPECT_GE(fd, 0) << err;
    EXPECT_FALSE(rejected);
    net::TcpChannel ch;
    ASSERT_TRUE(listener.awaitChannel(5.0, ch));
    ::close(ch.fd);
    if (fd >= 0)
        ::close(fd);
    EXPECT_GE(listener.rejectedHandshakes(), 1u);
}

TEST(Net, HandshakeRefusesTheJsonEraProtocol)
{
    // Protocol 1 spoke JSON records after the handshake; a hello that
    // still says proto 1 is refused before any record is exchanged.
    ASSERT_EQ(net::kFleetProtocol, 2u);
    net::TcpFleetListener listener("127.0.0.1:0", common::StackIdentity{});
    std::string err;
    ASSERT_TRUE(listener.start(&err)) << err;
    const int fd = net::tcpConnect(
        "127.0.0.1:" + std::to_string(listener.port()), 5.0, &err);
    ASSERT_GE(fd, 0) << err;

    common::Json hello = common::Json::object();
    hello["op"] = "hello";
    hello["proto"] = static_cast<std::int64_t>(1);
    hello["backend"] = "spatial";
    hello["scenario"] = "edge";
    hello["digest"] = "abc123";
    hello["session"] = common::hexU64(7);
    hello["epoch"] = static_cast<std::int64_t>(0);
    const double deadline = common::monotonicNow() + 5.0;
    ASSERT_EQ(common::writeFrameUntil(fd, hello.dump(), deadline),
              common::IoStatus::Ok);
    std::string payload;
    ASSERT_EQ(common::readFrameUntil(fd, payload, deadline),
              common::FrameStatus::Ok);
    const common::Json reply = common::Json::parse(payload);
    EXPECT_EQ(reply.at("op").asString(), "reject");
    EXPECT_EQ(reply.at("message").asString(), "protocol mismatch");
    ::close(fd);

    net::TcpChannel ch;
    EXPECT_FALSE(listener.awaitChannel(0.0, ch));
    EXPECT_EQ(listener.rejectedHandshakes(), 1u);
    EXPECT_EQ(listener.acceptedChannels(), 0u);
}

TEST(Net, TcpFleetMatchesInProcessBitForBit)
{
    // Plain TCP (no chaos): two worker threads dial the master and
    // the whole co-search runs over the network transport. Results
    // must be byte-identical to in-process; a healthy wire absorbs
    // zero faults.
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = [&] {
        CoOptimizer driver(sharedEnv(), cfg);
        return driver.run();
    }();

    const std::string port_file = tempPortFile("plain");
    std::vector<int> exits;
    std::vector<std::thread> workers =
        spawnWorkerThreads(2, port_file, &exits);

    CoSearchResult result;
    TransportStats stats;
    {
        FleetConfig fc;
        fc.workers = 2;
        fc.listenAddr = "127.0.0.1:0";
        fc.connectWaitSeconds = 10.0;
        fc.listenPortFile = port_file;
        FleetEnv fleet(sharedEnv(), fc);
        ASSERT_GT(fleet.listenPort(), 0);
        // The constructor waited for both workers to dial in.
        EXPECT_EQ(fleet.liveWorkers(), 2u);

        CoOptimizer driver(fleet, cfg);
        result = driver.run();
        stats = fleet.transportStats();
    } // fleet teardown sends "bye": workers shut down cleanly

    for (auto &t : workers)
        t.join();
    for (int rc : exits)
        EXPECT_EQ(rc, 0) << "worker did not exit cleanly";
    std::remove(port_file.c_str());

    expectIdenticalResults(base, result);
    EXPECT_EQ(stats.total(), 0u);
    EXPECT_GE(stats.heartbeats, 2u);
}

TEST(Net, TcpFleetThroughChaosProxyStaysByteIdentical)
{
    // THE tentpole acceptance property, in-process edition: the
    // co-search talks to its workers only through the chaos proxy,
    // which drops, duplicates, reorders, tears, flips and delays
    // frames and severs every connection at partition points — and
    // the trajectory must still be byte-identical, with the ledger
    // proving real faults were absorbed (reconnects > 0).
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = [&] {
        CoOptimizer driver(sharedEnv(), cfg);
        return driver.run();
    }();

    // The proxy dials upstream lazily (per accepted connection), so
    // it can bind BEFORE the master exists; workers read the proxy's
    // port while the master's port flows in via the upstream file.
    const std::string master_port_file = tempPortFile("chaosm");
    const std::string proxy_port_file = tempPortFile("chaosp");

    net::ChaosProfile profile;
    std::string err;
    ASSERT_TRUE(net::ChaosProfile::parse(
        "seed=23,drop=0.03,tear=0.02,flip=0.03,dup=0.05,reorder=0.05,"
        "delay=0.2:0.005,partition=60:0.3",
        profile, &err))
        << err;

    std::vector<int> exits;
    std::vector<std::thread> workers =
        spawnWorkerThreads(2, proxy_port_file, &exits);

    // Proxy starter thread: bridges the two port files.
    std::unique_ptr<net::ChaosProxy> proxy;
    std::thread proxy_starter([&] {
        const int mport = awaitPortFile(master_port_file);
        ASSERT_GT(mport, 0);
        proxy = std::make_unique<net::ChaosProxy>(
            "127.0.0.1:0", "127.0.0.1:" + std::to_string(mport),
            profile);
        std::string perr;
        ASSERT_TRUE(proxy->start(&perr)) << perr;
        std::ofstream out(proxy_port_file, std::ios::trunc);
        out << proxy->port() << "\n";
    });

    CoSearchResult result;
    TransportStats stats;
    {
        FleetConfig fc;
        fc.workers = 2;
        fc.listenAddr = "127.0.0.1:0";
        fc.connectWaitSeconds = 10.0;
        fc.reconnectWaitSeconds = 5.0;
        fc.maxRespawnsPerWorker = 1000; // chaos: never retire a slot
        fc.requestDeadlineSeconds = 2.0; // dropped frames fail fast
        fc.listenPortFile = master_port_file;
        FleetEnv fleet(sharedEnv(), fc);
        CoOptimizer driver(fleet, cfg);
        result = driver.run();
        stats = fleet.transportStats();
    }
    proxy_starter.join();

    expectIdenticalResults(base, result);
    const auto injected = proxy->counters();
    // The schedule must have actually fired (otherwise this test
    // proves nothing) ...
    EXPECT_GT(injected.faults(), 0u);
    // ... and the fleet must have visibly absorbed network faults.
    EXPECT_GT(stats.reconnects + stats.workerRespawns +
                  stats.inprocFallbacks + stats.total(),
              0u);

    proxy->stop(); // severs worker connections; clients give up
    for (auto &t : workers)
        t.join();
    std::remove(master_port_file.c_str());
    std::remove(proxy_port_file.c_str());
}

TEST(Net, MasterWithNoWorkersDegradesToInProcess)
{
    // Hard-partition extreme: nobody ever dials in. The master
    // starts with zero workers after the (short) connect wait and
    // every run falls back to in-process evaluation — byte-identical,
    // with the degradation visible in the ledger.
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = [&] {
        CoOptimizer driver(sharedEnv(), cfg);
        return driver.run();
    }();

    FleetConfig fc;
    fc.workers = 2;
    fc.listenAddr = "127.0.0.1:0";
    fc.connectWaitSeconds = 0.05;
    FleetEnv fleet(sharedEnv(), fc);
    EXPECT_EQ(fleet.liveWorkers(), 0u);

    CoOptimizer driver(fleet, cfg);
    const CoSearchResult result = driver.run();
    expectIdenticalResults(base, result);
    EXPECT_GE(fleet.transportStats().inprocFallbacks, 1u);
}

TEST(Net, UnbindableListenAddressThrowsAndWritesNoPortFile)
{
    // A listen address another socket already holds must fail loudly:
    // silently degrading to in-process would leave a deploy script
    // waiting on a port file that never appears.
    const int busy = net::tcpListen("127.0.0.1:0");
    ASSERT_GE(busy, 0);
    const std::string addr =
        "127.0.0.1:" + std::to_string(net::boundPort(busy));
    const std::string port_file = tempPortFile("busy");

    FleetConfig fc;
    fc.workers = 2;
    fc.listenAddr = addr;
    fc.listenPortFile = port_file;
    fc.connectWaitSeconds = 0.05;
    try {
        FleetEnv fleet(sharedEnv(), fc);
        ADD_FAILURE() << "FleetEnv bound a port that is in use";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(addr), std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(std::ifstream(port_file).good());
    ::close(busy);
}
