/**
 * @file
 * Tests for the spatial co-search environment (multi-layer mapping
 * runs, PPA aggregation, cost charging).
 */

#include <gtest/gtest.h>

#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::SpatialEnv;
using core::BackendOptions;

namespace {

SpatialEnv
makeEnv(std::size_t shapes = 3)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = shapes;
    return SpatialEnv({workload::makeMobileNet()}, opt);
}

accel::HwPoint
decentHw(const SpatialEnv &env)
{
    // Mid-range configuration: 8x8 PEs, generous buffers.
    accel::HwPoint p(env.hwSpace().dims(), 0);
    p[0] = 7;
    p[1] = 7;
    p[2] = env.hwSpace().axis(2).values.size() - 1;
    p[3] = env.hwSpace().axis(3).values.size() - 1;
    p[4] = 1;
    return p;
}

} // namespace

TEST(SpatialEnv, LayerBudgetRespected)
{
    const auto env = makeEnv(3);
    EXPECT_EQ(env.layers().size(), 3u);
    BackendOptions opt;
    opt.maxShapesPerNetwork = 100;
    const SpatialEnv big({workload::makeMobileNet()}, opt);
    EXPECT_GT(big.layers().size(), 3u);
}

TEST(SpatialEnv, MultiWorkloadConcatenatesLayers)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 3;
    const SpatialEnv env(
        {workload::makeMobileNet(), workload::makeResNet()}, opt);
    EXPECT_EQ(env.layers().size(), 6u);
}

TEST(SpatialEnv, PowerBudgetFollowsScenario)
{
    const auto env = makeEnv();
    EXPECT_DOUBLE_EQ(env.powerBudgetMw(), 2000.0);
    BackendOptions opt;
    opt.scenario = accel::Scenario::Cloud;
    const SpatialEnv cloud({workload::makeMobileNet()}, opt);
    EXPECT_DOUBLE_EQ(cloud.powerBudgetMw(), 20000.0);
}

TEST(SpatialEnv, RunSpendsBudgetAndCharges)
{
    const auto env = makeEnv();
    auto run = env.createRun(decentHw(env), 1);
    run->step(30);
    // One budget unit is a sweep: one PPA query per unique layer.
    EXPECT_EQ(run->spent(), 30);
    EXPECT_EQ(run->bestLossHistory().size(), 30u);
    EXPECT_DOUBLE_EQ(
        run->chargedSeconds(),
        30.0 * static_cast<double>(env.layers().size()) *
            costmodel::AnalyticalCostModel::nominalEvalSeconds());
}

TEST(SpatialEnv, FirstSweepAlreadyFeasible)
{
    // Every engine seeds with the minimal mapping, so a single sweep
    // yields a feasible aggregated PPA on a reasonable HW config.
    const auto env = makeEnv();
    auto run = env.createRun(decentHw(env), 9);
    run->step(1);
    EXPECT_TRUE(run->bestPpa().feasible);
}

TEST(SpatialEnv, LossHistoryMonotone)
{
    const auto env = makeEnv();
    auto run = env.createRun(decentHw(env), 2);
    run->step(120);
    const auto &hist = run->bestLossHistory();
    for (std::size_t i = 1; i < hist.size(); ++i)
        ASSERT_LE(hist[i], hist[i - 1]);
}

TEST(SpatialEnv, BestPpaAggregatesLayers)
{
    const auto env = makeEnv();
    auto run = env.createRun(decentHw(env), 3);
    run->step(150);
    const accel::Ppa ppa = run->bestPpa();
    ASSERT_TRUE(ppa.feasible);
    EXPECT_GT(ppa.latencyMs, 0.0);
    EXPECT_GT(ppa.powerMw, 0.0);
    EXPECT_GT(ppa.areaMm2, 0.0);
    // Area equals the model's HW area (mapping independent).
    const auto cfg = env.spatialSpace().decode(decentHw(env));
    EXPECT_DOUBLE_EQ(ppa.areaMm2, env.model().areaMm2(cfg));
}

TEST(SpatialEnv, UnsteppedRunIsInfeasible)
{
    const auto env = makeEnv();
    auto run = env.createRun(decentHw(env), 4);
    EXPECT_FALSE(run->bestPpa().feasible);
}

TEST(SpatialEnv, TinyBuffersYieldInfeasiblePpa)
{
    const auto env = makeEnv();
    accel::HwPoint p(env.hwSpace().dims(), 0); // smallest everything
    auto run = env.createRun(p, 5);
    run->step(40);
    // L1 = 512 B cannot double-buffer most tiles; either the run
    // found some tiny feasible mapping or reports infeasible — both
    // are acceptable, but the loss history must stay monotone.
    const auto &hist = run->bestLossHistory();
    for (std::size_t i = 1; i < hist.size(); ++i)
        ASSERT_LE(hist[i], hist[i - 1]);
}

TEST(SpatialEnv, SensitivityFiniteAndNonNegative)
{
    const auto env = makeEnv();
    auto run = env.createRun(decentHw(env), 6);
    run->step(100);
    const double r = run->sensitivity(0.05);
    EXPECT_GE(r, 0.0);
    EXPECT_TRUE(std::isfinite(r));
}

TEST(SpatialEnv, DeterministicAcrossIdenticalRuns)
{
    const auto env = makeEnv();
    auto a = env.createRun(decentHw(env), 7);
    auto b = env.createRun(decentHw(env), 7);
    a->step(60);
    b->step(60);
    EXPECT_DOUBLE_EQ(a->bestPpa().latencyMs, b->bestPpa().latencyMs);
}

TEST(SpatialEnv, DescribeHwIsReadable)
{
    const auto env = makeEnv();
    const std::string desc = env.describeHw(decentHw(env));
    EXPECT_NE(desc.find("pe=8x8"), std::string::npos);
}

TEST(SpatialEnv, EngineChoicesWork)
{
    for (auto kind :
         {mapping::EngineKind::Random, mapping::EngineKind::Genetic}) {
        BackendOptions opt;
        opt.engine = kind;
        opt.maxShapesPerNetwork = 2;
        const SpatialEnv env({workload::makeMobileNet()}, opt);
        auto run = env.createRun(decentHw(env), 8);
        run->step(50);
        EXPECT_EQ(run->spent(), 50);
    }
}

TEST(SpatialEnv, CloudScenarioEndToEnd)
{
    BackendOptions opt;
    opt.scenario = accel::Scenario::Cloud;
    opt.maxShapesPerNetwork = 2;
    const SpatialEnv env({workload::makeResNet()}, opt);
    // Cloud space has more axes values; a mid-range point must decode
    // and run.
    accel::HwPoint p(env.hwSpace().dims(), 0);
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = env.hwSpace().axis(i).values.size() / 2;
    auto run = env.createRun(p, 31);
    run->step(30);
    EXPECT_EQ(run->spent(), 30);
    const auto &hist = run->bestLossHistory();
    for (std::size_t i = 1; i < hist.size(); ++i)
        ASSERT_LE(hist[i], hist[i - 1]);
}

TEST(SpatialEnv, DifferentSeedsDifferentSearchPaths)
{
    const auto env = makeEnv();
    auto a = env.createRun(decentHw(env), 1);
    auto b = env.createRun(decentHw(env), 2);
    a->step(50);
    b->step(50);
    // Same HW, different mapping-search seeds: histories diverge
    // (identical ones would mean the seed is ignored).
    EXPECT_NE(a->bestLossHistory(), b->bestLossHistory());
}

TEST(SpatialEnv, MinSeedBudgetCoversEveryLayer)
{
    // One mapping evaluation per unique layer is the floor below
    // which a "seeded" design would leave layers unmapped (each
    // budget unit is a round-robin sweep seeded per layer).
    const auto env = makeEnv(3);
    EXPECT_EQ(env.minSeedBudget(),
              static_cast<int>(env.layers().size()));
    EXPECT_EQ(env.minSeedBudget(), 3);
}

TEST(SpatialEnv, ReportsStackIdentity)
{
    const auto edge = makeEnv(2);
    EXPECT_EQ(edge.backendName(), "spatial");
    EXPECT_EQ(edge.scenarioName(), "edge");
    EXPECT_NE(edge.workloadDigest(), 0u);
    EXPECT_FALSE(edge.expertDefault().has_value());

    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.scenario = accel::Scenario::Cloud;
    const SpatialEnv cloud({workload::makeMobileNet()}, opt);
    EXPECT_EQ(cloud.scenarioName(), "cloud");
    // Same layer stack, different scenario: the workload digest is a
    // function of the layers alone.
    EXPECT_EQ(cloud.workloadDigest(), makeEnv(2).workloadDigest());
}
