/**
 * @file
 * Tests for the fault-injection harness and the driver's recovery
 * supervisor: FaultPlan determinism, per-kind injection behaviour of
 * FaultyEnv, and full co-searches that survive injected fault storms
 * with bit-identical results across repeated runs.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/fault.hh"
#include "common/status.hh"
#include "core/driver.hh"
#include "core/fault_env.hh"
#include "common/rng.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using common::EvalFault;
using common::EvalStatus;
using common::FaultKind;
using common::FaultPlan;
using common::FaultSpec;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;
using core::FaultyEnv;
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
tinyConfig(DriverConfig cfg)
{
    cfg.batchSize = 8;
    cfg.maxIter = 3;
    cfg.sh.bMax = 48;
    cfg.minBudgetPerRound = 4;
    cfg.workers = 2;
    cfg.seed = 11;
    return cfg;
}

FaultSpec
mixedSpec(double transient, double hang, double corrupt)
{
    FaultSpec spec;
    spec.transientRate = transient;
    spec.hangRate = hang;
    spec.corruptRate = corrupt;
    spec.deadlineSeconds = 120.0;
    spec.seed = 77;
    return spec;
}

} // namespace

TEST(FaultPlan, DecisionsArePureFunctions)
{
    const FaultPlan plan(mixedSpec(0.1, 0.05, 0.05));
    for (std::uint64_t stream = 0; stream < 5; ++stream)
        for (std::uint64_t i = 0; i < 200; ++i)
            EXPECT_EQ(plan.decide(stream, i), plan.decide(stream, i));
}

TEST(FaultPlan, InactivePlanNeverInjects)
{
    const FaultPlan plan;
    EXPECT_FALSE(plan.active());
    for (std::uint64_t i = 0; i < 500; ++i)
        EXPECT_EQ(plan.decide(123, i), FaultKind::None);
}

TEST(FaultPlan, RatesApproximatelyRespected)
{
    const FaultPlan plan(mixedSpec(0.2, 0.0, 0.0));
    int faults = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        if (plan.decide(9, static_cast<std::uint64_t>(i)) !=
            FaultKind::None)
            ++faults;
    const double rate = static_cast<double>(faults) / n;
    EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(FaultPlan, DifferentSeedsGiveDifferentPatterns)
{
    FaultSpec a = mixedSpec(0.3, 0.0, 0.0);
    FaultSpec b = a;
    b.seed = a.seed + 1;
    const FaultPlan pa(a), pb(b);
    int diff = 0;
    for (std::uint64_t i = 0; i < 500; ++i)
        if (pa.decide(1, i) != pb.decide(1, i))
            ++diff;
    EXPECT_GT(diff, 0);
}

TEST(FaultyEnv, TransientInjectionThrowsEvalFault)
{
    FaultSpec spec = mixedSpec(1.0, 0.0, 0.0); // every eval crashes
    FaultyEnv env(sharedEnv(), FaultPlan(spec));
    common::Rng rng(42);
    auto run = env.createRun(env.hwSpace().randomPoint(rng), 1);
    EXPECT_THROW(run->step(1), EvalFault);
    try {
        run->step(1);
        FAIL() << "expected EvalFault";
    } catch (const EvalFault &f) {
        EXPECT_EQ(f.status(), EvalStatus::Transient);
    }
    EXPECT_GT(env.injected().transient, 0u);
}

TEST(FaultyEnv, HangChargesDeadlineSeconds)
{
    FaultSpec spec = mixedSpec(0.0, 1.0, 0.0); // every eval hangs
    FaultyEnv env(sharedEnv(), FaultPlan(spec));
    common::Rng rng(42);
    auto run = env.createRun(env.hwSpace().randomPoint(rng), 2);
    const double before = run->chargedSeconds();
    try {
        run->step(1);
        FAIL() << "expected EvalFault";
    } catch (const EvalFault &f) {
        EXPECT_EQ(f.status(), EvalStatus::Timeout);
    }
    // The burned deadline is real (virtual) search cost.
    EXPECT_DOUBLE_EQ(run->chargedSeconds() - before,
                     spec.deadlineSeconds);
    EXPECT_EQ(env.injected().hang, 1u);
}

TEST(FaultyEnv, CorruptionProducesInvalidPpa)
{
    FaultSpec spec = mixedSpec(0.0, 0.0, 1.0); // every eval corrupts
    FaultyEnv env(sharedEnv(), FaultPlan(spec));
    common::Rng rng(42);
    auto run = env.createRun(env.hwSpace().randomPoint(rng), 3);
    run->step(1);
    // Silent corruption: the result claims feasibility but fails the
    // validity check the supervisor applies before trusting it.
    EXPECT_FALSE(run->bestPpa().valid());
    EXPECT_GT(env.injected().corrupt, 0u);
}

TEST(FaultyEnv, InactivePlanIsTransparent)
{
    FaultyEnv env(sharedEnv(), FaultPlan{});
    common::Rng rng(45);
    const auto hw = env.hwSpace().randomPoint(rng);
    auto faulty = env.createRun(hw, 4);
    auto plain = sharedEnv().createRun(hw, 4);
    faulty->step(6);
    plain->step(6);
    EXPECT_EQ(faulty->spent(), plain->spent());
    EXPECT_DOUBLE_EQ(faulty->bestPpa().latencyMs,
                     plain->bestPpa().latencyMs);
    EXPECT_DOUBLE_EQ(faulty->chargedSeconds(), plain->chargedSeconds());
    EXPECT_EQ(env.injected().total(), 0u);
}

TEST(FaultDriver, SurvivesTwentyPercentFaultStorm)
{
    FaultyEnv env(sharedEnv(), FaultPlan(mixedSpec(0.1, 0.05, 0.05)));
    CoOptimizer opt(env, tinyConfig(DriverConfig::unico()));
    const CoSearchResult result = opt.run(); // must not throw
    EXPECT_EQ(result.records.size(), 8u * 3u);
    EXPECT_FALSE(result.front.empty());
    // Faults were actually injected and the supervisor recovered.
    EXPECT_GT(env.injected().total(), 0u);
    EXPECT_GT(result.faults.total(), 0u);
    EXPECT_GT(result.faults.retries, 0u);
}

TEST(FaultDriver, ArchiveNeverContainsInvalidPpa)
{
    FaultyEnv env(sharedEnv(), FaultPlan(mixedSpec(0.05, 0.0, 0.3)));
    CoOptimizer opt(env, tinyConfig(DriverConfig::unico()));
    const CoSearchResult result = opt.run();
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        EXPECT_TRUE(rec.ppa.valid());
        for (double v : entry.objectives)
            EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(FaultDriver, DegradationRescuesPermanentlyFaultyCandidates)
{
    // Crash every evaluation: after degradeAfterFaults faults the
    // supervisor drops each candidate to the degraded engine (whose
    // injection stops), so the whole batch still completes without a
    // single penalty.
    FaultyEnv env(sharedEnv(), FaultPlan(mixedSpec(1.0, 0.0, 0.0)));
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    CoOptimizer opt(env, cfg);
    const CoSearchResult result = opt.run();
    EXPECT_EQ(result.records.size(), 8u);
    EXPECT_EQ(result.faults.degradations, 8u);
    EXPECT_EQ(result.faults.penalized, 0u);
    for (const auto &rec : result.records) {
        EXPECT_TRUE(rec.degraded);
        EXPECT_FALSE(rec.penalized);
    }
    EXPECT_FALSE(result.front.empty());
}

TEST(FaultDriver, ExhaustedRetriesFallBackToPenalty)
{
    // Crash every evaluation with the degradation rung disabled: no
    // candidate can ever produce a result; the supervisor must
    // penalize all of them and still terminate.
    FaultyEnv env(sharedEnv(), FaultPlan(mixedSpec(1.0, 0.0, 0.0)));
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    cfg.recovery.degradeAfterFaults = 1000; // never degrade
    CoOptimizer opt(env, cfg);
    const CoSearchResult result = opt.run();
    EXPECT_EQ(result.records.size(), 8u);
    EXPECT_EQ(result.faults.penalized, 8u);
    for (const auto &rec : result.records) {
        EXPECT_TRUE(rec.penalized);
        EXPECT_FALSE(rec.ppa.feasible);
    }
    EXPECT_TRUE(result.front.empty());
}

TEST(FaultDriver, SameSeedAndPlanGiveIdenticalArchives)
{
    // The determinism contract: identical config seed and identical
    // FaultPlan reproduce the search bit-for-bit, fault storms and
    // recovery included — including across thread counts.
    const auto spec = mixedSpec(0.1, 0.05, 0.05);
    auto cfg = tinyConfig(DriverConfig::unico());

    FaultyEnv env_a(sharedEnv(), FaultPlan(spec));
    CoOptimizer opt_a(env_a, cfg);
    const CoSearchResult a = opt_a.run();

    cfg.realThreads = 4; // host parallelism must not change results
    FaultyEnv env_b(sharedEnv(), FaultPlan(spec));
    CoOptimizer opt_b(env_b, cfg);
    const CoSearchResult b = opt_b.run();

    ASSERT_EQ(a.front.size(), b.front.size());
    const auto &ea = a.front.entries();
    const auto &eb = b.front.entries();
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].id, eb[i].id);
        EXPECT_EQ(ea[i].objectives, eb[i].objectives); // bit-exact
    }
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].ppa.latencyMs, b.records[i].ppa.latencyMs);
        EXPECT_EQ(a.records[i].faults, b.records[i].faults);
        EXPECT_EQ(a.records[i].penalized, b.records[i].penalized);
    }
    EXPECT_EQ(a.faults.total(), b.faults.total());
    EXPECT_EQ(env_a.injected().total(), env_b.injected().total());
}
