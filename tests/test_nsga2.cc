/**
 * @file
 * Tests for the NSGA-II co-search baseline.
 */

#include <gtest/gtest.h>

#include "baselines/nsga2.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using baselines::Nsga2Config;
using baselines::runNsga2;
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

Nsga2Config
tinyConfig()
{
    Nsga2Config cfg;
    cfg.population = 6;
    cfg.generations = 3;
    cfg.swBudget = 30;
    cfg.seed = 5;
    return cfg;
}

} // namespace

TEST(Nsga2, ProducesExpectedRecordCount)
{
    const auto result = runNsga2(sharedEnv(), tinyConfig());
    // init population + generations * offspring
    EXPECT_EQ(result.records.size(), 6u + 3u * 6u);
    EXPECT_GT(result.totalHours, 0.0);
}

TEST(Nsga2, EveryIndividualGetsFullBudget)
{
    const auto result = runNsga2(sharedEnv(), tinyConfig());
    for (const auto &rec : result.records)
        EXPECT_EQ(rec.budgetSpent, 30);
}

TEST(Nsga2, FrontNonEmptyAndConstrained)
{
    const auto result = runNsga2(sharedEnv(), tinyConfig());
    ASSERT_FALSE(result.front.empty());
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        EXPECT_TRUE(rec.constraintOk);
    }
}

TEST(Nsga2, TracePerGeneration)
{
    const auto result = runNsga2(sharedEnv(), tinyConfig());
    EXPECT_EQ(result.trace.size(), 4u); // init + 3 generations
    for (std::size_t i = 1; i < result.trace.size(); ++i)
        EXPECT_GT(result.trace[i].hours, result.trace[i - 1].hours);
}

TEST(Nsga2, DeterministicForFixedSeed)
{
    const auto a = runNsga2(sharedEnv(), tinyConfig());
    const auto b = runNsga2(sharedEnv(), tinyConfig());
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i)
        EXPECT_EQ(a.records[i].hw, b.records[i].hw);
}

TEST(Nsga2, MoreGenerationsNeverShrinkHypervolume)
{
    // The front archive is cumulative, so trace fronts only improve.
    const auto result = runNsga2(sharedEnv(), tinyConfig());
    const auto &first = result.trace.front().front;
    const auto &last = result.trace.back().front;
    EXPECT_GE(last.size() + 1, first.size() > 0 ? 1u : 0u);
}
