/**
 * @file
 * Tests for the distributed evaluation fleet: bit-identical
 * trajectories between in-process and fleet execution (any worker
 * count, any thread count), transparent recovery from worker
 * SIGKILLs and corrupted response frames, circuit-breaker fallback
 * to in-process evaluation, and the transport fault ledger.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "core/fault_env.hh"
#include "core/fleet.hh"
#include "core/spatial_env.hh"
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
