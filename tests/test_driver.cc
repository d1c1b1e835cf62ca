/**
 * @file
 * Integration tests for the co-optimization driver (Algorithm 1)
 * across its mode matrix (UNICO, HASCO-like, MOBOHB-like, ablations).
 */

#include <gtest/gtest.h>

#include "core/backend.hh"
#include "core/driver.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::BudgetMode;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;
using core::SpatialEnv;
using core::BackendOptions;
using core::UpdateMode;

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
    // Fewer virtual workers than the batch size so early stopping
    // shows up on the wall-clock cost axis, as on the paper's server.
    cfg.workers = 2;
    cfg.seed = 11;
    return cfg;
}

} // namespace

TEST(Driver, UnicoProducesNonEmptyFront)
{
    CoOptimizer opt(sharedEnv(), tinyConfig(DriverConfig::unico()));
    const CoSearchResult result = opt.run();
    EXPECT_EQ(result.records.size(), 8u * 3u);
    EXPECT_FALSE(result.front.empty());
    EXPECT_GT(result.totalHours, 0.0);
    EXPECT_GT(result.evaluations, 0u);
}

TEST(Driver, TraceGrowsMonotonically)
{
    CoOptimizer opt(sharedEnv(), tinyConfig(DriverConfig::unico()));
    const CoSearchResult result = opt.run();
    ASSERT_EQ(result.trace.size(), 3u);
    for (std::size_t i = 1; i < result.trace.size(); ++i)
        EXPECT_GT(result.trace[i].hours, result.trace[i - 1].hours);
}

TEST(Driver, FullBudgetSpendsBMaxPerCandidate)
{
    CoOptimizer opt(sharedEnv(), tinyConfig(DriverConfig::hascoLike()));
    const CoSearchResult result = opt.run();
    for (const auto &rec : result.records)
        EXPECT_EQ(rec.budgetSpent, 48);
}

TEST(Driver, ShSpendsLessThanFullBudget)
{
    const auto full_cfg = tinyConfig(DriverConfig::hascoLike());
    CoOptimizer full(sharedEnv(), full_cfg);
    auto sh_cfg = tinyConfig(DriverConfig::unico());
    CoOptimizer sh(sharedEnv(), sh_cfg);
    const auto full_result = full.run();
    const auto sh_result = sh.run();
    EXPECT_LT(sh_result.evaluations, full_result.evaluations);
    EXPECT_LT(sh_result.totalHours, full_result.totalHours);
}

TEST(Driver, ShGivesUnequalBudgets)
{
    CoOptimizer opt(sharedEnv(), tinyConfig(DriverConfig::unico()));
    const CoSearchResult result = opt.run();
    int min_budget = 1 << 30, max_budget = 0;
    for (const auto &rec : result.records) {
        min_budget = std::min(min_budget, rec.budgetSpent);
        max_budget = std::max(max_budget, rec.budgetSpent);
    }
    EXPECT_LT(min_budget, max_budget);
    EXPECT_EQ(max_budget, 48); // at least one survivor reaches bMax
}

TEST(Driver, SensitivityRecordedInAllModes)
{
    // R is recorded for every run (Sec. 4.3 inspects R even on runs
    // trained without it); useRobustness only adds it as a 4th
    // optimization objective.
    for (auto cfg : {DriverConfig::unico(), DriverConfig::hascoLike()}) {
        CoOptimizer opt(sharedEnv(), tinyConfig(std::move(cfg)));
        const auto result = opt.run();
        bool any_positive = false;
        for (const auto &rec : result.records) {
            EXPECT_GE(rec.sensitivity, 0.0);
            any_positive |= rec.sensitivity > 0.0;
        }
        EXPECT_TRUE(any_positive);
    }
}

TEST(Driver, ChampionUpdateMarksOnePerIteration)
{
    CoOptimizer opt(sharedEnv(), tinyConfig(DriverConfig::shChampion()));
    const auto result = opt.run();
    int hf = 0;
    for (const auto &rec : result.records)
        hf += rec.highFidelity ? 1 : 0;
    EXPECT_EQ(hf, 3); // one champion per iteration
}

TEST(Driver, AllUpdateMarksEverySample)
{
    CoOptimizer opt(sharedEnv(), tinyConfig(DriverConfig::mobohbLike()));
    const auto result = opt.run();
    for (const auto &rec : result.records)
        EXPECT_TRUE(rec.highFidelity);
}

TEST(Driver, HighFidelityMarksAtLeastOnePerIteration)
{
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 4;
    CoOptimizer opt(sharedEnv(), cfg);
    const auto result = opt.run();
    int hf = 0;
    for (const auto &rec : result.records)
        hf += rec.highFidelity ? 1 : 0;
    // The UUL rule always admits at least the batch champion; whether
    // it filters more depends on how spread the batch scalars are
    // (filtering itself is unit-tested in test_fidelity).
    EXPECT_GE(hf, cfg.maxIter);
    EXPECT_LE(hf, static_cast<int>(result.records.size()));
}

TEST(Driver, DeterministicForFixedSeed)
{
    CoOptimizer a(sharedEnv(), tinyConfig(DriverConfig::unico()));
    CoOptimizer b(sharedEnv(), tinyConfig(DriverConfig::unico()));
    const auto ra = a.run();
    const auto rb = b.run();
    ASSERT_EQ(ra.records.size(), rb.records.size());
    for (std::size_t i = 0; i < ra.records.size(); ++i) {
        EXPECT_EQ(ra.records[i].hw, rb.records[i].hw);
        EXPECT_DOUBLE_EQ(ra.records[i].ppa.latencyMs,
                         rb.records[i].ppa.latencyMs);
    }
    EXPECT_DOUBLE_EQ(ra.totalHours, rb.totalHours);
}

TEST(Driver, SeedChangesSearchPath)
{
    auto cfg_a = tinyConfig(DriverConfig::unico());
    auto cfg_b = cfg_a;
    cfg_b.seed = 77;
    CoOptimizer a(sharedEnv(), cfg_a);
    CoOptimizer b(sharedEnv(), cfg_b);
    const auto ra = a.run();
    const auto rb = b.run();
    bool any_diff = false;
    for (std::size_t i = 0; i < ra.records.size(); ++i)
        any_diff |= !(ra.records[i].hw == rb.records[i].hw);
    EXPECT_TRUE(any_diff);
}

TEST(Driver, FrontEntriesSatisfyConstraints)
{
    CoOptimizer opt(sharedEnv(), tinyConfig(DriverConfig::unico()));
    const auto result = opt.run();
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        EXPECT_TRUE(rec.constraintOk);
        EXPECT_LE(rec.ppa.powerMw, sharedEnv().powerBudgetMw());
    }
}

TEST(Driver, MinDistanceRecordOnFront)
{
    CoOptimizer opt(sharedEnv(), tinyConfig(DriverConfig::unico()));
    const auto result = opt.run();
    ASSERT_FALSE(result.front.empty());
    const std::size_t idx = result.minDistanceRecord();
    ASSERT_LT(idx, result.records.size());
    EXPECT_TRUE(result.records[idx].constraintOk);
}

TEST(Driver, ModeNames)
{
    EXPECT_STREQ(toString(BudgetMode::MSH), "msh");
    EXPECT_STREQ(toString(BudgetMode::FullBudget), "full");
    EXPECT_STREQ(toString(UpdateMode::HighFidelity), "high-fidelity");
    EXPECT_STREQ(toString(UpdateMode::Champion), "champion");
}

TEST(Driver, FactoryConfigsMatchPaperRoles)
{
    EXPECT_EQ(DriverConfig::unico().budgetMode, BudgetMode::MSH);
    EXPECT_EQ(DriverConfig::unico().updateMode, UpdateMode::HighFidelity);
    EXPECT_TRUE(DriverConfig::unico().useRobustness);
    EXPECT_EQ(DriverConfig::hascoLike().budgetMode,
              BudgetMode::FullBudget);
    EXPECT_EQ(DriverConfig::mobohbLike().budgetMode,
              BudgetMode::Hyperband);
    EXPECT_EQ(DriverConfig::mobohbLike().updateMode, UpdateMode::All);
    EXPECT_GT(DriverConfig::mobohbLike().randomFraction, 0.0);
    EXPECT_EQ(DriverConfig::mshChampion().budgetMode, BudgetMode::MSH);
    EXPECT_FALSE(DriverConfig::shChampion().useRobustness);
}

TEST(Driver, RealThreadsBitIdenticalToSerial)
{
    // Sec. 3.5: the parallel implementation must not change results —
    // every SW-search job owns its run and seeded RNG.
    auto serial_cfg = tinyConfig(DriverConfig::unico());
    auto threaded_cfg = serial_cfg;
    threaded_cfg.realThreads = 4;
    CoOptimizer serial(sharedEnv(), serial_cfg);
    CoOptimizer threaded(sharedEnv(), threaded_cfg);
    const auto rs = serial.run();
    const auto rt = threaded.run();
    ASSERT_EQ(rs.records.size(), rt.records.size());
    for (std::size_t i = 0; i < rs.records.size(); ++i) {
        EXPECT_EQ(rs.records[i].hw, rt.records[i].hw);
        EXPECT_DOUBLE_EQ(rs.records[i].ppa.latencyMs,
                         rt.records[i].ppa.latencyMs);
        EXPECT_EQ(rs.records[i].budgetSpent,
                  rt.records[i].budgetSpent);
    }
    EXPECT_DOUBLE_EQ(rs.totalHours, rt.totalHours);
}

// ---------------------------------------------------------------------
// The driver is backend-agnostic: the same contracts hold over every
// registered evaluation stack, constructed through the registry.
// ---------------------------------------------------------------------

namespace {

/** Small registry-built env per backend (cheap enough for ctest). */
std::unique_ptr<core::CoSearchEnv>
registryEnv(const std::string &backend)
{
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    const char *net =
        backend == "ascend" ? "fsrcnn_120x320" : "mobilenet";
    return core::makeBackendEnv(backend, {workload::makeNetwork(net)},
                                opt);
}

DriverConfig
backendTinyConfig(const std::string &backend)
{
    auto cfg = tinyConfig(DriverConfig::unico());
    if (backend == "ascend") {
        // The cycle-level simulator is pricier per evaluation; shrink
        // the budget to keep the suite fast.
        cfg.batchSize = 4;
        cfg.maxIter = 2;
        cfg.sh.bMax = 12;
    }
    return cfg;
}

class DriverOnBackend : public ::testing::TestWithParam<const char *>
{
};

} // namespace

TEST_P(DriverOnBackend, ProducesFeasibleFrontDeterministically)
{
    const std::string backend = GetParam();
    const auto cfg = backendTinyConfig(backend);

    const auto env_a = registryEnv(backend);
    CoOptimizer a(*env_a, cfg);
    const CoSearchResult ra = a.run();

    EXPECT_FALSE(ra.records.empty());
    EXPECT_FALSE(ra.front.empty());
    EXPECT_GT(ra.totalHours, 0.0);
    for (const auto &entry : ra.front.entries()) {
        const auto &rec = ra.records[entry.id];
        EXPECT_TRUE(rec.ppa.feasible);
        EXPECT_GT(rec.ppa.latencyMs, 0.0);
        EXPECT_GT(rec.ppa.powerMw, 0.0);
    }

    // Same seed, fresh registry env: identical trajectory.
    const auto env_b = registryEnv(backend);
    CoOptimizer b(*env_b, cfg);
    const CoSearchResult rb = b.run();
    ASSERT_EQ(ra.records.size(), rb.records.size());
    for (std::size_t i = 0; i < ra.records.size(); ++i) {
        EXPECT_EQ(ra.records[i].hw, rb.records[i].hw);
        EXPECT_EQ(ra.records[i].ppa.latencyMs,
                  rb.records[i].ppa.latencyMs);
        EXPECT_EQ(ra.records[i].budgetSpent, rb.records[i].budgetSpent);
    }
    EXPECT_EQ(ra.totalHours, rb.totalHours);
}

TEST_P(DriverOnBackend, SeedBudgetCoversAllLayers)
{
    const std::string backend = GetParam();
    const auto env = registryEnv(backend);
    auto cfg = backendTinyConfig(backend);
    cfg.minBudgetPerRound = 1; // below the layer count on purpose
    CoOptimizer opt(*env, cfg);
    const CoSearchResult r = opt.run();
    // minSeedBudget() (= layer count) floors every candidate's spend:
    // no record may have fewer evaluations than layers.
    for (const auto &rec : r.records)
        EXPECT_GE(rec.budgetSpent, env->minSeedBudget());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DriverOnBackend,
                         ::testing::Values("spatial", "ascend"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });
