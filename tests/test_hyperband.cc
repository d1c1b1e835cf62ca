/**
 * @file
 * Tests for the Hyperband budget mode (the BOHB-style bracket
 * scheduler behind the MOBOHB baseline).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/driver.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::BudgetMode;
using core::CoOptimizer;
using core::DriverConfig;

namespace {

core::SpatialEnv &
env()
{
    static core::SpatialEnv e = [] {
        core::BackendOptions opt;
        opt.maxShapesPerNetwork = 2;
        return core::SpatialEnv({workload::makeMobileNet()}, opt);
    }();
    return e;
}

DriverConfig
hbConfig(int iters)
{
    DriverConfig cfg = DriverConfig::mobohbLike();
    cfg.batchSize = 8;
    cfg.maxIter = iters;
    cfg.sh.bMax = 64;
    cfg.minBudgetPerRound = 4;
    cfg.workers = 2;
    cfg.seed = 19;
    return cfg;
}

} // namespace

TEST(Hyperband, BracketsVaryBatchSize)
{
    // Different brackets start different candidate counts, so
    // per-iteration record counts must not all be equal.
    CoOptimizer opt(env(), hbConfig(5));
    const auto result = opt.run();
    std::map<int, int> per_iter;
    for (const auto &rec : result.records)
        ++per_iter[rec.iteration];
    std::set<int> distinct;
    for (const auto &[iter, count] : per_iter)
        distinct.insert(count);
    EXPECT_GT(distinct.size(), 1u);
}

TEST(Hyperband, AggressiveBracketsStopEarly)
{
    CoOptimizer opt(env(), hbConfig(5));
    const auto result = opt.run();
    int min_budget = 1 << 30, max_budget = 0;
    for (const auto &rec : result.records) {
        min_budget = std::min(min_budget, rec.budgetSpent);
        max_budget = std::max(max_budget, rec.budgetSpent);
    }
    EXPECT_EQ(max_budget, 64);   // someone reaches bMax
    EXPECT_LT(min_budget, 64);   // someone is early-stopped
}

TEST(Hyperband, ConservativeBracketRunsFullBudgetForAll)
{
    // The s = 0 bracket gives every candidate bMax directly. With
    // s_max = floor(log2(64/4)) = 4, iterations cycle s = 4,3,2,1,0;
    // the 5th iteration (index 4) is the conservative bracket.
    CoOptimizer opt(env(), hbConfig(5));
    const auto result = opt.run();
    bool conservative_seen = false;
    for (const auto &rec : result.records) {
        if (rec.iteration == 4) {
            conservative_seen = true;
            EXPECT_EQ(rec.budgetSpent, 64);
        }
    }
    EXPECT_TRUE(conservative_seen);
}

TEST(Hyperband, EveryRecordWithinBudgetBounds)
{
    CoOptimizer opt(env(), hbConfig(6));
    const auto result = opt.run();
    for (const auto &rec : result.records) {
        EXPECT_GE(rec.budgetSpent, 4);
        EXPECT_LE(rec.budgetSpent, 64);
        EXPECT_EQ(rec.fullySearched, rec.budgetSpent >= 64);
    }
}

TEST(Hyperband, DeterministicForFixedSeed)
{
    CoOptimizer a(env(), hbConfig(3));
    CoOptimizer b(env(), hbConfig(3));
    const auto ra = a.run();
    const auto rb = b.run();
    ASSERT_EQ(ra.records.size(), rb.records.size());
    EXPECT_DOUBLE_EQ(ra.totalHours, rb.totalHours);
}

TEST(Hyperband, ModeName)
{
    EXPECT_STREQ(toString(BudgetMode::Hyperband), "hyperband");
}
