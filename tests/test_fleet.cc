/**
 * @file
 * Tests for the distributed evaluation fleet: bit-identical
 * trajectories between in-process and fleet execution (any worker
 * count, any thread count), transparent recovery from worker
 * SIGKILLs and corrupted response frames, circuit-breaker fallback
 * to in-process evaluation, the transport fault ledger, and the wire
 * records: bit-exact round trips, typed errors for adversarial bytes
 * and a worker that keeps serving after a request it cannot serve.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/frame.hh"
#include "common/rng.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "core/fault_env.hh"
#include "core/fleet.hh"
#include "core/fleet_wire.hh"
#include "core/spatial_env.hh"
#include "net/tcp_transport.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using common::TransportStats;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;
using core::FaultyEnv;
using core::FleetConfig;
using core::FleetEnv;
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
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.ppa.powerMw),
                  std::bit_cast<std::uint64_t>(rb.ppa.powerMw))
            << "record " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.ppa.areaMm2),
                  std::bit_cast<std::uint64_t>(rb.ppa.areaMm2))
            << "record " << i;
        EXPECT_EQ(ra.ppa.feasible, rb.ppa.feasible) << "record " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.sensitivity),
                  std::bit_cast<std::uint64_t>(rb.sensitivity))
            << "record " << i;
        EXPECT_EQ(ra.budgetSpent, rb.budgetSpent) << "record " << i;
        EXPECT_EQ(ra.constraintOk, rb.constraintOk) << "record " << i;
        EXPECT_EQ(ra.fullySearched, rb.fullySearched) << "record " << i;
        EXPECT_EQ(ra.faults, rb.faults) << "record " << i;
        EXPECT_EQ(ra.degraded, rb.degraded) << "record " << i;
        EXPECT_EQ(ra.penalized, rb.penalized) << "record " << i;
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.trace[i].hours),
                  std::bit_cast<std::uint64_t>(b.trace[i].hours))
            << "trace " << i;
        EXPECT_EQ(a.trace[i].front, b.trace[i].front) << "trace " << i;
    }
    EXPECT_EQ(a.front.entries().size(), b.front.entries().size());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.totalHours),
              std::bit_cast<std::uint64_t>(b.totalHours));
    EXPECT_EQ(a.evaluations, b.evaluations);
    // Evaluation-fault ledgers must match exactly; transport counters
    // are intentionally excluded (they describe the topology, not the
    // search).
    EXPECT_EQ(a.faults.transient, b.faults.transient);
    EXPECT_EQ(a.faults.timeout, b.faults.timeout);
    EXPECT_EQ(a.faults.corrupt, b.faults.corrupt);
    EXPECT_EQ(a.faults.retries, b.faults.retries);
    EXPECT_EQ(a.faults.degradations, b.faults.degradations);
    EXPECT_EQ(a.faults.penalized, b.faults.penalized);
}

CoSearchResult
runInProcess(core::CoSearchEnv &env, const DriverConfig &cfg)
{
    CoOptimizer driver(env, cfg);
    return driver.run();
}

CoSearchResult
runWithFleet(core::CoSearchEnv &env, const DriverConfig &cfg,
             FleetConfig fleet_cfg, TransportStats *stats = nullptr,
             std::size_t *live = nullptr)
{
    FleetEnv fleet(env, fleet_cfg);
    CoOptimizer driver(fleet, cfg);
    CoSearchResult result = driver.run();
    if (stats != nullptr)
        *stats = fleet.transportStats();
    if (live != nullptr)
        *live = fleet.liveWorkers();
    return result;
}

} // namespace

TEST(Fleet, SpawnsRequestedWorkers)
{
    FleetConfig fc;
    fc.workers = 3;
    FleetEnv fleet(sharedEnv(), fc);
    EXPECT_EQ(fleet.liveWorkers(), 3u);
    EXPECT_EQ(fleet.workerPids().size(), 3u);
    EXPECT_EQ(fleet.backendName(), sharedEnv().backendName());
    EXPECT_EQ(fleet.workloadDigest(), sharedEnv().workloadDigest());
}

TEST(EnvDecorator, FaultyAndFleetForwardEveryQuery)
{
    for (const std::string backend : {"spatial", "ascend"}) {
        accel::EvalCache cache(1 << 20);
        surrogate::SurrogateContext screen;
        screen.options.enabled = true;
        core::BackendOptions opt;
        opt.cache = &cache;
        opt.surrogate = &screen;
        opt.scenario = accel::Scenario::Cloud;
        const auto inner = core::makeBackendEnv(
            backend, {workload::makeNetwork("resnet")}, opt);
        const FaultyEnv faulty(*inner,
                               common::FaultPlan(common::FaultSpec{}));
        FleetConfig fc;
        fc.workers = 1;
        const FleetEnv fleet(*inner, fc);
        common::Rng rng(1);
        const accel::HwPoint h = inner->hwSpace().randomPoint(rng);
        const core::CoSearchEnv *decorators[] = {&faulty, &fleet};
        for (const core::CoSearchEnv *env : decorators) {
            SCOPED_TRACE(backend + (env == &faulty ? " faulty" : " fleet"));
            EXPECT_EQ(&env->hwSpace(), &inner->hwSpace());
            EXPECT_EQ(env->powerBudgetMw(), inner->powerBudgetMw());
            EXPECT_EQ(env->areaBudgetMm2(), inner->areaBudgetMm2());
            EXPECT_EQ(env->describeHw(h), inner->describeHw(h));
            EXPECT_EQ(env->minSeedBudget(), inner->minSeedBudget());
            EXPECT_EQ(env->evalCache(), inner->evalCache());
            EXPECT_TRUE(env->surrogateStats().enabled);
            EXPECT_EQ(surrogate::toString(env->surrogateStats()),
                      surrogate::toString(inner->surrogateStats()));
            EXPECT_EQ(env->backendName(), backend);
            EXPECT_EQ(env->scenarioName(), inner->scenarioName());
            EXPECT_EQ(env->workloadDigest(), inner->workloadDigest());
            EXPECT_EQ(env->expertDefault(), inner->expertDefault());
        }
    }
}

TEST(Fleet, SingleRunMatchesInProcessBitForBit)
{
    common::Rng rng(5);
    const accel::HwPoint hw = sharedEnv().hwSpace().randomPoint(rng);
    auto local = sharedEnv().createRun(hw, 99);
    local->step(16);

    FleetConfig fc;
    fc.workers = 2;
    FleetEnv fleet(sharedEnv(), fc);
    auto remote = fleet.createRun(hw, 99);
    remote->step(16);

    EXPECT_EQ(remote->spent(), local->spent());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(remote->chargedSeconds()),
              std::bit_cast<std::uint64_t>(local->chargedSeconds()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(remote->bestPpa().latencyMs),
              std::bit_cast<std::uint64_t>(local->bestPpa().latencyMs));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(remote->bestPpa().powerMw),
              std::bit_cast<std::uint64_t>(local->bestPpa().powerMw));
    ASSERT_EQ(remote->bestLossHistory().size(),
              local->bestLossHistory().size());
    for (std::size_t i = 0; i < local->bestLossHistory().size(); ++i)
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(remote->bestLossHistory()[i]),
            std::bit_cast<std::uint64_t>(local->bestLossHistory()[i]))
            << "history " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(remote->sensitivity(0.05)),
              std::bit_cast<std::uint64_t>(local->sensitivity(0.05)));
}

TEST(Fleet, DriverTrajectoryMatchesInProcess)
{
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = runInProcess(sharedEnv(), cfg);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        FleetConfig fc;
        fc.workers = workers;
        TransportStats stats;
        const CoSearchResult fleet =
            runWithFleet(sharedEnv(), cfg, fc, &stats);
        expectIdenticalResults(base, fleet);
        // A healthy fleet absorbs zero faults.
        EXPECT_EQ(stats.total(), 0u) << "workers=" << workers;
        EXPECT_EQ(stats.workerRespawns, 0u);
    }
}

TEST(Fleet, ChaosKillsAreTransparent)
{
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = runInProcess(sharedEnv(), cfg);

    FleetConfig fc;
    fc.workers = 3;
    fc.chaosKills = 4; // SIGKILL real workers at seeded points
    fc.chaosSeed = 0xdeadULL;
    TransportStats stats;
    const CoSearchResult fleet =
        runWithFleet(sharedEnv(), cfg, fc, &stats);

    expectIdenticalResults(base, fleet);
    EXPECT_GE(stats.workerCrashes, 1u);
    EXPECT_GE(stats.workerRespawns, 1u);
    EXPECT_EQ(stats.inprocFallbacks, 0u);
    // The transport digest rides along in the result.
    EXPECT_GE(fleet.faults.transport.workerCrashes, 1u);
    EXPECT_EQ(base.faults.transport.total(), 0u);
}

TEST(Fleet, ChaosKillsUnderFaultInjectionAndThreads)
{
    // The full gauntlet: injected evaluation faults (worker-side),
    // multithreaded driver (work stealing), and real worker kills.
    common::FaultSpec spec;
    spec.transientRate = 0.04;
    spec.hangRate = 0.02;
    spec.corruptRate = 0.02;
    spec.seed = 23;
    FaultyEnv faulty_base(sharedEnv(), common::FaultPlan(spec));
    FaultyEnv faulty_fleet(sharedEnv(), common::FaultPlan(spec));

    DriverConfig cfg = tinyConfig();
    cfg.realThreads = 2;
    const CoSearchResult base = runInProcess(faulty_base, cfg);
    ASSERT_GT(base.faults.total(), 0u)
        << "spec too mild to exercise the supervisor";

    FleetConfig fc;
    fc.workers = 3;
    fc.chaosKills = 3;
    TransportStats stats;
    const CoSearchResult fleet =
        runWithFleet(faulty_fleet, cfg, fc, &stats);

    expectIdenticalResults(base, fleet);
    EXPECT_GE(stats.workerCrashes, 1u);
    EXPECT_GE(stats.workerRespawns, 1u);
}

TEST(Fleet, CorruptResponseFramesAreRejectedAndRecovered)
{
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = runInProcess(sharedEnv(), cfg);

    FleetConfig fc;
    fc.workers = 2;
    fc.chaosCorruptEvery = 7; // workers bit-flip every 7th response
    TransportStats stats;
    const CoSearchResult fleet =
        runWithFleet(sharedEnv(), cfg, fc, &stats);

    expectIdenticalResults(base, fleet);
    // CRC-64 must have caught the damaged frames, and the supervisor
    // must have replaced the desynchronized workers.
    EXPECT_GE(stats.corruptFrames, 1u);
    EXPECT_GE(stats.workerRespawns, 1u);
}

TEST(Fleet, CircuitBreakerFallsBackToInProcess)
{
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = runInProcess(sharedEnv(), cfg);

    // One worker, zero respawn budget, corrupt every single response:
    // the first conversation retires the only slot, the breaker
    // opens, and every run finishes in-process.
    FleetConfig fc;
    fc.workers = 1;
    fc.maxRespawnsPerWorker = 0;
    fc.maxRequestRetries = 2;
    fc.chaosCorruptEvery = 1;
    TransportStats stats;
    std::size_t live = 99;
    const CoSearchResult fleet =
        runWithFleet(sharedEnv(), cfg, fc, &stats, &live);

    expectIdenticalResults(base, fleet);
    EXPECT_EQ(live, 0u);
    EXPECT_GE(stats.corruptFrames, 1u);
    EXPECT_GE(stats.inprocFallbacks, 1u);
    EXPECT_EQ(stats.workerRespawns, 0u);
}

TEST(Fleet, HungWorkerIsKilledAndReplaced)
{
    // A 0-second request deadline cannot be met: every conversation
    // times out with the worker still alive (a "hang"), the worker is
    // SIGKILLed, and after the retry/respawn budget the breaker
    // degrades to in-process evaluation. Results must not change.
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = runInProcess(sharedEnv(), cfg);

    FleetConfig fc;
    fc.workers = 1;
    fc.maxRespawnsPerWorker = 1;
    fc.maxRequestRetries = 2;
    fc.requestDeadlineSeconds = 1e-9;
    TransportStats stats;
    const CoSearchResult fleet =
        runWithFleet(sharedEnv(), cfg, fc, &stats);

    expectIdenticalResults(base, fleet);
    EXPECT_GE(stats.requestTimeouts, 1u);
    EXPECT_GE(stats.workerHangs, 1u);
    EXPECT_GE(stats.inprocFallbacks, 1u);
}

TEST(Fleet, CoalescingCutsRoundTripsWithoutChangingResults)
{
    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = runInProcess(sharedEnv(), cfg);

    FleetConfig fc;
    fc.workers = 2;
    TransportStats stats;
    const CoSearchResult fleet = runWithFleet(sharedEnv(), cfg, fc, &stats);
    expectIdenticalResults(base, fleet);

    // Coalescing packs several mutating ops into each frame, where a
    // per-op protocol would pay at least one round-trip per op.
    EXPECT_GT(stats.opsApplied, stats.requestRoundTrips);
}

TEST(Fleet, CoalescedBatchesSurviveChaosKills)
{
    // Worker kills mid-batch: the retried request replays acked
    // history and re-applies the pending tail idempotently.
    common::FaultSpec spec;
    spec.transientRate = 0.04;
    spec.hangRate = 0.02;
    spec.seed = 29;
    FaultyEnv faulty_base(sharedEnv(), common::FaultPlan(spec));
    FaultyEnv faulty_fleet(sharedEnv(), common::FaultPlan(spec));

    const DriverConfig cfg = tinyConfig();
    const CoSearchResult base = runInProcess(faulty_base, cfg);
    ASSERT_GT(base.faults.total(), 0u);

    FleetConfig fc;
    fc.workers = 3;
    fc.chaosKills = 4;
    fc.chaosSeed = 0xbeefULL;
    TransportStats stats;
    const CoSearchResult fleet =
        runWithFleet(faulty_fleet, cfg, fc, &stats);

    expectIdenticalResults(base, fleet);
    EXPECT_GE(stats.workerCrashes, 1u);
    EXPECT_GT(stats.opsApplied, stats.requestRoundTrips);
}

TEST(Fleet, RendezvousPlacementIsStableAndMinimallyDisruptive)
{
    // Placement is a pure function of (key, slot): the same inputs
    // must give the same home in every process, every run — golden
    // values pin that down against accidental reshuffles (a silent
    // hash change would scatter every worker's resident-run cache).
    const std::vector<bool> five(5, true);
    EXPECT_EQ(core::rendezvousHome(0x1234, 0x5678, five),
              core::rendezvousHome(0x1234, 0x5678, five));
    EXPECT_EQ(core::rendezvousScore(1, 2, 3),
              core::rendezvousScore(1, 2, 3));
    EXPECT_NE(core::rendezvousScore(1, 2, 3),
              core::rendezvousScore(1, 2, 4));
    EXPECT_EQ(core::rendezvousHome(0, 0, {}), -1);
    EXPECT_EQ(core::rendezvousHome(0, 0, {false, false}), -1);

    // Removing one worker must move ONLY that worker's keys: every
    // key homed elsewhere keeps its home (the property that keeps
    // the other workers' caches warm through a death).
    common::Rng rng(0xbeef);
    int moved = 0, kept = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t hi = rng.next();
        const std::uint64_t lo = rng.next();
        const int before = core::rendezvousHome(hi, lo, five);
        ASSERT_GE(before, 0);
        std::vector<bool> without = five;
        without[2] = false;
        const int after = core::rendezvousHome(hi, lo, without);
        ASSERT_GE(after, 0);
        if (before == 2) {
            ++moved;
            EXPECT_NE(after, 2);
        } else {
            ++kept;
            EXPECT_EQ(after, before) << "key " << i
                                     << " moved without cause";
        }
    }
    // Sanity: the dead slot actually owned a fair share (~1/5).
    EXPECT_GT(moved, 200);
    EXPECT_GT(kept, 1000);
}

TEST(Fleet, TransportStatsMergeAndTotals)
{
    TransportStats a;
    a.count(common::TransportFault::WorkerCrash);
    a.count(common::TransportFault::TornFrame);
    a.count(common::TransportFault::RequestTimeout);
    a.count(common::TransportFault::WorkerHang);
    EXPECT_EQ(a.total(), 3u); // hang annotates the timeout, not extra
    TransportStats b;
    b.count(common::TransportFault::CorruptFrame);
    b.workerRespawns = 2;
    b.merge(a);
    EXPECT_EQ(b.total(), 4u);
    EXPECT_EQ(b.workerHangs, 1u);
    EXPECT_EQ(b.workerRespawns, 2u);
}

// ---------------------------------------------------------------------------
// Wire records
// ---------------------------------------------------------------------------

namespace {

namespace wire = core::wire;

/** A spatial-fleet-sized sense request: 6 axes, 8 ops, 5 acked. */
wire::Request
sampleRequest()
{
    wire::Request r;
    r.nonce = 0x0123456789abcdefULL;
    r.kind = wire::RequestKind::Sense;
    r.seed = 0xfeedface12345678ULL;
    r.alpha = 0.05;
    r.done = 5;
    r.hw = {3, 1, 4, 1, 5, 9};
    for (int i = 0; i < 7; ++i)
        r.ops.push_back({wire::OpKind::Step, 16 + i});
    r.ops.push_back({wire::OpKind::Degrade, 0});
    return r;
}

/** A faulted state reply with a 30-entry loss history. */
wire::Reply
sampleReply()
{
    wire::Reply r;
    r.nonce = 0x0123456789abcdefULL;
    r.kind = wire::ReplyKind::State;
    r.status = common::EvalStatus::Transient;
    r.message = "injected transient fault";
    r.degraded = true;
    r.applied = 3;
    r.spent = 112;
    r.seconds = 224.0;
    r.ppa = accel::Ppa{1.5, 200.0, 3.25, 300.0, true};
    r.sense = 0.125;
    for (int i = 0; i < 30; ++i)
        r.hist.push_back(1.0 / (i + 1));
    return r;
}

wire::Reply
failureReply()
{
    wire::Reply r;
    r.nonce = 7;
    r.kind = wire::ReplyKind::Failure;
    r.message = "hardware point outside the design space";
    return r;
}

template <class Record>
std::string
bytesOf(const Record &record)
{
    std::string out;
    wire::encode(record, out);
    return out;
}

void
putU32At(std::string &bytes, std::size_t offset, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[offset + static_cast<std::size_t>(i)] =
            static_cast<char>(v >> (8 * i));
}

/** Nothing a decode sized may exceed the bytes it was given. */
void
expectBoundedBy(const std::string &in, const wire::Request &r)
{
    EXPECT_LE(r.hw.size() * 8 + r.ops.size() * 8, in.size());
}

void
expectBoundedBy(const std::string &in, const wire::Reply &r)
{
    EXPECT_LE(r.message.size() + r.hist.size() * 8, in.size());
}

/** Every strict prefix of @p bytes is refused with a typed error. */
template <class Record>
void
expectEveryTruncationRefused(const std::string &bytes)
{
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        SCOPED_TRACE(n);
        const std::string cut = bytes.substr(0, n);
        Record out;
        const wire::WireError e = wire::decode(cut, out);
        EXPECT_TRUE(e == wire::WireError::Truncated ||
                    e == wire::WireError::CountOverrun)
            << wire::toString(e);
        expectBoundedBy(cut, out);
    }
}

/** Each single-bit flip of @p bytes either gives a typed error or
 *  decodes to a record that re-encodes to exactly the flipped bytes. */
template <class Record>
void
expectEveryBitFlipTypedOrExact(const std::string &bytes)
{
    int refused = 0;
    for (std::size_t i = 0; i < bytes.size() * 8; ++i) {
        SCOPED_TRACE(i);
        std::string flipped = bytes;
        flipped[i / 8] = static_cast<char>(flipped[i / 8] ^ (1 << (i % 8)));
        Record out;
        const wire::WireError e = wire::decode(flipped, out);
        expectBoundedBy(flipped, out);
        if (e != wire::WireError::None) {
            ++refused;
            continue;
        }
        EXPECT_EQ(bytesOf(out), flipped);
    }
    EXPECT_GT(refused, 0);
}

} // namespace

TEST(FleetWire, RecordsRoundTripBitExactly)
{
    // Every double field crosses as its raw bits: NaN payloads and
    // signs, -0.0, infinities and subnormals included.
    const std::uint64_t specials[] = {
        0x7ff8000000000123ULL, // quiet NaN with a payload
        0x7ff0000000000001ULL, // signaling NaN
        0xfff8000000000000ULL, // negative quiet NaN
        0x8000000000000000ULL, // -0.0
        0x7ff0000000000000ULL, // +inf
        0xfff0000000000000ULL, // -inf
        0x0000000000000001ULL, // smallest subnormal
        0x800fffffffffffffULL, // largest negative subnormal
        0x3ff0000000000000ULL, // 1.0
    };
    const auto d = [](std::uint64_t bits) {
        return std::bit_cast<double>(bits);
    };
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    for (std::size_t k = 0; k < std::size(specials); ++k) {
        SCOPED_TRACE(k);
        const auto at = [&](std::size_t j) {
            return d(specials[(k + j) % std::size(specials)]);
        };
        wire::Request req = sampleRequest();
        req.alpha = at(0);
        const std::string reqBytes = bytesOf(req);
        wire::Request req2;
        ASSERT_EQ(wire::decode(reqBytes, req2), wire::WireError::None);
        EXPECT_EQ(bits(req2.alpha), bits(req.alpha));
        EXPECT_EQ(req2.nonce, req.nonce);
        EXPECT_EQ(req2.kind, req.kind);
        EXPECT_EQ(req2.seed, req.seed);
        EXPECT_EQ(req2.done, req.done);
        EXPECT_EQ(req2.hw, req.hw);
        EXPECT_EQ(req2.ops, req.ops);
        EXPECT_EQ(bytesOf(req2), reqBytes);

        wire::Reply rep = sampleReply();
        rep.seconds = at(1);
        rep.ppa.latencyMs = at(2);
        rep.ppa.powerMw = at(3);
        rep.ppa.areaMm2 = at(4);
        rep.ppa.energyMj = at(5);
        rep.sense = at(6);
        for (std::size_t j = 0; j < rep.hist.size(); ++j)
            rep.hist[j] = at(j);
        const std::string repBytes = bytesOf(rep);
        wire::Reply rep2;
        ASSERT_EQ(wire::decode(repBytes, rep2), wire::WireError::None);
        EXPECT_EQ(bits(rep2.seconds), bits(rep.seconds));
        EXPECT_EQ(bits(rep2.ppa.latencyMs), bits(rep.ppa.latencyMs));
        EXPECT_EQ(bits(rep2.ppa.powerMw), bits(rep.ppa.powerMw));
        EXPECT_EQ(bits(rep2.ppa.areaMm2), bits(rep.ppa.areaMm2));
        EXPECT_EQ(bits(rep2.ppa.energyMj), bits(rep.ppa.energyMj));
        EXPECT_EQ(bits(rep2.sense), bits(rep.sense));
        ASSERT_EQ(rep2.hist.size(), rep.hist.size());
        for (std::size_t j = 0; j < rep.hist.size(); ++j)
            EXPECT_EQ(bits(rep2.hist[j]), bits(rep.hist[j])) << j;
        EXPECT_EQ(rep2.nonce, rep.nonce);
        EXPECT_EQ(rep2.status, rep.status);
        EXPECT_EQ(rep2.message, rep.message);
        EXPECT_EQ(rep2.degraded, rep.degraded);
        EXPECT_EQ(rep2.ppa.feasible, rep.ppa.feasible);
        EXPECT_EQ(rep2.applied, rep.applied);
        EXPECT_EQ(rep2.spent, rep.spent);
        EXPECT_EQ(bytesOf(rep2), repBytes);
    }

    // The short records: ping, bye, pong and failure.
    for (const auto kind : {wire::RequestKind::Ping, wire::RequestKind::Bye}) {
        wire::Request r;
        r.nonce = 42;
        r.kind = kind;
        const std::string b = bytesOf(r);
        EXPECT_EQ(b.size(), 9u);
        wire::Request back;
        ASSERT_EQ(wire::decode(b, back), wire::WireError::None);
        EXPECT_EQ(back.kind, kind);
        EXPECT_EQ(back.nonce, 42u);
    }
    wire::Reply pong;
    pong.nonce = 43;
    wire::Reply back;
    ASSERT_EQ(wire::decode(bytesOf(pong), back), wire::WireError::None);
    EXPECT_EQ(back.kind, wire::ReplyKind::Pong);
    EXPECT_EQ(back.nonce, 43u);
    ASSERT_EQ(wire::decode(bytesOf(failureReply()), back),
              wire::WireError::None);
    EXPECT_EQ(back.kind, wire::ReplyKind::Failure);
    EXPECT_EQ(back.status, common::EvalStatus::Fatal);
    EXPECT_EQ(back.message, failureReply().message);
}

TEST(FleetWire, LayoutPinsSizesAndOffsets)
{
    // The documented layout: a 37-byte request head plus 8 bytes per
    // axis and per op; a 75-byte state reply plus its message and
    // 8 bytes per history entry; the nonce first in every record.
    const std::string req = bytesOf(sampleRequest());
    EXPECT_EQ(req.size(), 37u + 8 * 6 + 8 * 8);
    const wire::Reply rep = sampleReply();
    const std::string repBytes = bytesOf(rep);
    EXPECT_EQ(repBytes.size(), 75u + rep.message.size() + 8 * 30);
    EXPECT_EQ(bytesOf(failureReply()).size(),
              13u + failureReply().message.size());
    for (const std::string *b : {&req, &repBytes})
        EXPECT_EQ(static_cast<unsigned char>((*b)[0]), 0xefu); // nonce LE
}

TEST(FleetWire, EveryTruncationIsATypedError)
{
    expectEveryTruncationRefused<wire::Request>(bytesOf(sampleRequest()));
    wire::Request ping;
    ping.kind = wire::RequestKind::Ping;
    expectEveryTruncationRefused<wire::Request>(bytesOf(ping));
    expectEveryTruncationRefused<wire::Reply>(bytesOf(sampleReply()));
    expectEveryTruncationRefused<wire::Reply>(bytesOf(failureReply()));
    expectEveryTruncationRefused<wire::Reply>(bytesOf(wire::Reply{}));
}

TEST(FleetWire, EverySingleBitFlipIsTypedOrReencodesExactly)
{
    expectEveryBitFlipTypedOrExact<wire::Request>(bytesOf(sampleRequest()));
    expectEveryBitFlipTypedOrExact<wire::Reply>(bytesOf(sampleReply()));
    expectEveryBitFlipTypedOrExact<wire::Reply>(bytesOf(failureReply()));
}

TEST(FleetWire, CountsThatOverrunThePayloadAreRefused)
{
    // Offsets of the counts in the documented layout.
    struct Case
    {
        bool request;
        std::size_t offset;
    };
    const Case cases[] = {
        {true, 29},  // axis count
        {true, 33},  // op count
        {false, 67}, // state message length
        {false, 71}, // state history length
    };
    for (const Case &c : cases) {
        const std::string valid = c.request ? bytesOf(sampleRequest())
                                            : bytesOf(sampleReply());
        for (const std::uint32_t count :
             {static_cast<std::uint32_t>(valid.size()),
              std::numeric_limits<std::uint32_t>::max()}) {
            SCOPED_TRACE(std::to_string(c.offset) + " = " +
                         std::to_string(count));
            std::string bad = valid;
            putU32At(bad, c.offset, count);
            if (c.request) {
                wire::Request out;
                EXPECT_EQ(wire::decode(bad, out),
                          wire::WireError::CountOverrun);
                expectBoundedBy(bad, out);
            } else {
                wire::Reply out;
                EXPECT_EQ(wire::decode(bad, out),
                          wire::WireError::CountOverrun);
                expectBoundedBy(bad, out);
            }
        }
    }
    std::string failure = bytesOf(failureReply());
    putU32At(failure, 9, std::numeric_limits<std::uint32_t>::max());
    wire::Reply out;
    EXPECT_EQ(wire::decode(failure, out), wire::WireError::CountOverrun);
    expectBoundedBy(failure, out);
}

TEST(FleetWire, UnknownKindsTrailingBytesAndBadFieldsAreRefused)
{
    const std::string req = bytesOf(sampleRequest());
    const std::string rep = bytesOf(sampleReply());
    for (const unsigned char kind : {0x00, 0x05, 0x80, 0xff}) {
        std::string r = req;
        r[8] = static_cast<char>(kind);
        wire::Request out;
        EXPECT_EQ(wire::decode(r, out), wire::WireError::UnknownKind);
    }
    for (const unsigned char kind : {0x00, 0x04, 0x80, 0xff}) {
        std::string r = rep;
        r[8] = static_cast<char>(kind);
        wire::Reply out;
        EXPECT_EQ(wire::decode(r, out), wire::WireError::UnknownKind);
    }

    wire::Request ping;
    ping.kind = wire::RequestKind::Ping;
    wire::Reply pong;
    for (const std::string &valid :
         {req, bytesOf(ping)}) {
        wire::Request out;
        EXPECT_EQ(wire::decode(valid + '\0', out),
                  wire::WireError::TrailingBytes);
    }
    for (const std::string &valid :
         {rep, bytesOf(pong), bytesOf(failureReply())}) {
        wire::Reply out;
        EXPECT_EQ(wire::decode(valid + 'x', out),
                  wire::WireError::TrailingBytes);
    }

    // Values no encoder writes: an op kind past degrade, a done
    // watermark past the op count, a status past fatal, flag bits
    // beyond feasible and degraded.
    std::string badOp = req;
    putU32At(badOp, 37 + 8 * 6, 2);
    std::string badDone = req;
    putU32At(badDone, 25, 9);
    for (const std::string &bad : {badOp, badDone}) {
        wire::Request out;
        EXPECT_EQ(wire::decode(bad, out), wire::WireError::BadField);
    }
    std::string badStatus = rep;
    badStatus[9] = 5;
    std::string badFlags = rep;
    badFlags[10] = 4;
    for (const std::string &bad : {badStatus, badFlags}) {
        wire::Reply out;
        EXPECT_EQ(wire::decode(bad, out), wire::WireError::BadField);
    }
}

namespace {

/**
 * The master's end of one real worker client: a TCP listener adopts a
 * worker thread running runFleetWorkerClient, and the test speaks
 * wire records to the worker's serve loop directly.
 */
class WorkerChannelHarness
{
  public:
    WorkerChannelHarness()
        : listener_("127.0.0.1:0", common::StackIdentity{})
    {
        std::string err;
        EXPECT_TRUE(listener_.start(&err)) << err;
        const std::string addr =
            "127.0.0.1:" + std::to_string(listener_.port());
        worker_ = std::thread([this, addr] {
            core::FleetWorkerOptions opts;
            opts.connectAddr = addr;
            opts.maxReconnectAttempts = 0;
            rc_ = core::runFleetWorkerClient(sharedEnv(), opts);
        });
        net::TcpChannel ch;
        EXPECT_TRUE(listener_.awaitChannel(10.0, ch));
        fd_ = ch.fd;
    }

    ~WorkerChannelHarness()
    {
        if (fd_ >= 0) {
            wire::Request bye;
            bye.kind = wire::RequestKind::Bye;
            common::writeFrame(fd_, bytesOf(bye));
        }
        worker_.join();
        EXPECT_EQ(rc_, 0) << "the worker must end cleanly on bye";
        if (fd_ >= 0)
            ::close(fd_);
    }

    /** One round trip of raw payload bytes; the decoded reply. */
    wire::Reply
    exchange(const std::string &payload)
    {
        wire::Reply reply;
        const double deadline = common::monotonicNow() + 30.0;
        EXPECT_EQ(common::writeFrameUntil(fd_, payload, deadline),
                  common::IoStatus::Ok);
        std::string got;
        EXPECT_EQ(common::readFrameUntil(fd_, got, deadline),
                  common::FrameStatus::Ok);
        EXPECT_EQ(wire::decode(got, reply), wire::WireError::None);
        return reply;
    }

    /** A ping still answers with a pong: the worker keeps serving. */
    void
    expectServing(std::uint64_t nonce)
    {
        wire::Request ping;
        ping.kind = wire::RequestKind::Ping;
        ping.nonce = nonce;
        const wire::Reply pong = exchange(bytesOf(ping));
        EXPECT_EQ(pong.kind, wire::ReplyKind::Pong);
        EXPECT_EQ(pong.nonce, nonce);
    }

  private:
    net::TcpFleetListener listener_;
    std::thread worker_;
    int rc_ = -1;
    int fd_ = -1;
};

} // namespace

TEST(FleetWorker, HardwarePointOutsideTheSpaceIsAFatalReply)
{
    const accel::DesignSpace &space = sharedEnv().hwSpace();
    common::Rng rng(5);
    wire::Request req;
    req.kind = wire::RequestKind::Sync;
    req.seed = 99;
    req.hw = space.randomPoint(rng);
    req.ops = {{wire::OpKind::Step, 16}};

    accel::HwPoint extraAxis = req.hw;
    extraAxis.push_back(0);
    accel::HwPoint missingAxis = req.hw;
    missingAxis.pop_back();
    accel::HwPoint pastTable = req.hw;
    pastTable[0] = space.axis(0).values.size();
    accel::HwPoint farPastTable = req.hw;
    farPastTable.back() = std::numeric_limits<std::size_t>::max();

    {
        WorkerChannelHarness worker;
        std::uint64_t nonce = 100;
        for (const accel::HwPoint &hw :
             {extraAxis, missingAxis, pastTable, farPastTable}) {
            wire::Request bad = req;
            bad.hw = hw;
            bad.nonce = ++nonce;
            const wire::Reply reply = worker.exchange(bytesOf(bad));
            EXPECT_EQ(reply.kind, wire::ReplyKind::Failure);
            EXPECT_EQ(reply.status, common::EvalStatus::Fatal);
            EXPECT_EQ(reply.message,
                      "hardware point outside the design space");
            EXPECT_EQ(reply.nonce, nonce);
            worker.expectServing(++nonce);
        }
        // A point inside the space is served as before.
        req.nonce = ++nonce;
        const wire::Reply ok = worker.exchange(bytesOf(req));
        EXPECT_EQ(ok.kind, wire::ReplyKind::State);
        EXPECT_EQ(ok.status, common::EvalStatus::Ok);
        EXPECT_EQ(ok.applied, 1u);
        EXPECT_EQ(ok.spent, 16);
        EXPECT_EQ(ok.nonce, nonce);
    }
}

TEST(FleetWorker, DamagedRequestsGetFailureRepliesAndServingGoesOn)
{
    // Below the frame CRC: each payload is CRC-clean but no valid
    // record. The worker answers each with a failure reply naming
    // the decode error, echoes the nonce when the bytes hold one, and
    // serves the next request.
    const std::string valid = bytesOf(sampleRequest());
    std::vector<std::string> damaged;
    for (std::size_t n = 0; n < valid.size(); ++n)
        damaged.push_back(valid.substr(0, n));
    for (const std::size_t offset : {std::size_t{29}, std::size_t{33}})
        for (const std::uint32_t count :
             {std::uint32_t{1000}, std::numeric_limits<std::uint32_t>::max()}) {
            std::string bad = valid;
            putU32At(bad, offset, count);
            damaged.push_back(bad);
        }
    std::string unknown = valid;
    unknown[8] = 9;
    damaged.push_back(unknown);
    damaged.push_back(valid + "x");

    WorkerChannelHarness worker;
    std::uint64_t nonce = 1000;
    for (const std::string &bad : damaged) {
        SCOPED_TRACE(bad.size());
        const wire::Reply reply = worker.exchange(bad);
        EXPECT_EQ(reply.kind, wire::ReplyKind::Failure);
        EXPECT_EQ(reply.message.rfind("malformed request: ", 0), 0u)
            << reply.message;
        EXPECT_EQ(reply.nonce, bad.size() >= 8 ? sampleRequest().nonce : 0);
        worker.expectServing(++nonce);
    }
}
