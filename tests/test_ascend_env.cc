/**
 * @file
 * Tests for the Ascend-like co-search environment.
 */

#include <gtest/gtest.h>

#include "core/ascend_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::AscendEnv;
using core::BackendOptions;

namespace {

AscendEnv
makeEnv()
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    return AscendEnv({workload::makeFsrcnn(120, 320)}, opt);
}

} // namespace

TEST(AscendEnv, AreaBudgetFromOptions)
{
    const auto env = makeEnv();
    EXPECT_DOUBLE_EQ(env.areaBudgetMm2(), 200.0);
    EXPECT_TRUE(std::isinf(env.powerBudgetMw()));
}

TEST(AscendEnv, RunMonotoneAndBudgeted)
{
    const auto env = makeEnv();
    const auto h = env.ascendSpace().encodeDefault();
    auto run = env.createRun(h, 1);
    run->step(24);
    EXPECT_EQ(run->spent(), 24);
    const auto &hist = run->bestLossHistory();
    ASSERT_EQ(hist.size(), 24u);
    for (std::size_t i = 1; i < hist.size(); ++i)
        ASSERT_LE(hist[i], hist[i - 1]);
}

TEST(AscendEnv, ChargesMinutesPerQuery)
{
    const auto env = makeEnv();
    auto run = env.createRun(env.ascendSpace().encodeDefault(), 2);
    run->step(4);
    // Every CAModel query costs 2-10 virtual minutes; a sweep issues
    // one query per layer.
    const double queries =
        4.0 * static_cast<double>(env.layers().size());
    EXPECT_GE(run->chargedSeconds(), queries * 120.0);
    EXPECT_LE(run->chargedSeconds(), queries * 600.0);
}

TEST(AscendEnv, DegradeToAnalyticalCheapensQueries)
{
    const auto env = makeEnv();
    auto run = env.createRun(env.ascendSpace().encodeDefault(), 9);
    run->step(2);
    const auto ppa_before = run->bestPpa();
    const double before = run->chargedSeconds();
    // First degradation succeeds; a second one is a no-op.
    EXPECT_TRUE(run->degradeToAnalytical());
    EXPECT_FALSE(run->degradeToAnalytical());
    // Incumbents survive the engine swap.
    EXPECT_DOUBLE_EQ(run->bestPpa().latencyMs, ppa_before.latencyMs);
    // Degraded queries charge the analytical model's nominal seconds,
    // far below the cycle-level simulator's 2-10 minutes.
    run->step(2);
    const double per_query = (run->chargedSeconds() - before) /
                             (2.0 * static_cast<double>(
                                        env.layers().size()));
    EXPECT_LT(per_query, 120.0);
    EXPECT_EQ(run->spent(), 4);
}

TEST(AscendEnv, DefaultConfigFindsFeasibleMapping)
{
    const auto env = makeEnv();
    const accel::Ppa ppa =
        env.evaluateConfig(env.ascendSpace().encodeDefault(), 40, 3);
    ASSERT_TRUE(ppa.feasible);
    EXPECT_GT(ppa.latencyMs, 0.0);
    EXPECT_LT(ppa.areaMm2, 200.0);
}

TEST(AscendEnv, SensitivityNonNegative)
{
    const auto env = makeEnv();
    auto run = env.createRun(env.ascendSpace().encodeDefault(), 4);
    run->step(30);
    EXPECT_GE(run->sensitivity(0.05), 0.0);
}

TEST(AscendEnv, DeterministicRuns)
{
    const auto env = makeEnv();
    const auto h = env.ascendSpace().encodeDefault();
    auto a = env.createRun(h, 5);
    auto b = env.createRun(h, 5);
    a->step(20);
    b->step(20);
    EXPECT_DOUBLE_EQ(a->bestPpa().latencyMs, b->bestPpa().latencyMs);
}

TEST(AscendEnv, DescribeHwMentionsCube)
{
    const auto env = makeEnv();
    const std::string desc =
        env.describeHw(env.ascendSpace().encodeDefault());
    EXPECT_NE(desc.find("cube="), std::string::npos);
}

TEST(AscendEnv, MinSeedBudgetCoversEveryLayer)
{
    // One mapping evaluation per unique layer is the floor below
    // which a "seeded" design would leave layers unmapped (each
    // budget unit is a round-robin sweep seeded per layer).
    const auto env = makeEnv();
    EXPECT_EQ(env.minSeedBudget(),
              static_cast<int>(env.layers().size()));
    EXPECT_GE(env.minSeedBudget(), 1);
}

TEST(AscendEnv, ReportsStackIdentity)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.areaBudgetMm2 = 150.0;
    const AscendEnv env({workload::makeNetwork("fsrcnn_120x320")}, opt);
    EXPECT_EQ(env.backendName(), "ascend");
    EXPECT_EQ(env.scenarioName(), "area150");
    EXPECT_EQ(makeEnv().scenarioName(), "area200");
    // Every digit of the budget names the scenario (shortest
    // round-trip form), so no two budgets share one.
    opt.areaBudgetMm2 = 96.1234567;
    EXPECT_EQ(AscendEnv({workload::makeNetwork("fsrcnn_120x320")}, opt)
                  .scenarioName(),
              "area96.1234567");
    opt.areaBudgetMm2 = 0.1 + 0.2;
    EXPECT_EQ(AscendEnv({workload::makeNetwork("fsrcnn_120x320")}, opt)
                  .scenarioName(),
              "area0.30000000000000004");
    EXPECT_NE(env.workloadDigest(), 0u);
    ASSERT_TRUE(env.expertDefault().has_value());
    EXPECT_EQ(env.expertDefault()->size(), env.hwSpace().dims());
}
