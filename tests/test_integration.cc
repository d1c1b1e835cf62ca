/**
 * @file
 * End-to-end integration tests: full co-searches on both platforms,
 * cross-method sanity, and failure injection (environments where no
 * feasible design exists).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "baselines/nsga2.hh"
#include "core/ascend_env.hh"
#include "core/backend.hh"
#include "core/checkpoint.hh"
#include "core/driver.hh"
#include "core/report.hh"
#include "core/spatial_env.hh"
#include "moo/hypervolume.hh"
#include "moo/scalarize.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;

namespace {

DriverConfig
smallConfig(DriverConfig cfg, std::uint64_t seed = 21)
{
    cfg.batchSize = 8;
    cfg.maxIter = 4;
    cfg.sh.bMax = 48;
    cfg.minBudgetPerRound = 4;
    cfg.workers = 4;
    cfg.seed = seed;
    return cfg;
}

/** Pure random HW sampling with full-budget search (sanity floor). */
CoSearchResult
randomSearch(core::CoSearchEnv &env, int samples, int budget,
             std::uint64_t seed)
{
    common::Rng rng(seed);
    CoSearchResult result;
    for (int i = 0; i < samples; ++i) {
        auto run = env.createRun(env.hwSpace().randomPoint(rng),
                                 rng.next());
        run->step(budget);
        core::HwEvalRecord rec;
        rec.hw = env.hwSpace().randomPoint(rng);
        rec.ppa = run->bestPpa();
        rec.budgetSpent = run->spent();
        rec.fullySearched = true;
        rec.constraintOk = rec.ppa.feasible &&
                           rec.ppa.powerMw <= env.powerBudgetMw() &&
                           rec.ppa.areaMm2 <= env.areaBudgetMm2();
        result.records.push_back(rec);
        if (rec.constraintOk)
            result.front.insert({rec.ppa.latencyMs, rec.ppa.powerMw,
                                 rec.ppa.areaMm2},
                                result.records.size() - 1);
    }
    return result;
}

} // namespace

TEST(Integration, MultiWorkloadUnicoEndToEnd)
{
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 3;
    core::SpatialEnv env(
        {workload::makeMobileNetV2(), workload::makeVit()}, opt);
    CoOptimizer driver(env, smallConfig(DriverConfig::unico()));
    const auto result = driver.run();
    ASSERT_FALSE(result.front.empty());
    const auto summary = core::summarize(result);
    EXPECT_GT(summary.feasible, 0u);
    EXPECT_GT(summary.fullySearched, 0u);
    // The representative design must satisfy the edge envelope.
    const auto &best = result.records[result.minDistanceRecord()];
    EXPECT_LE(best.ppa.powerMw, 2000.0);
}

TEST(Integration, UnicoMatchesOrBeatsRandomSearchHypervolume)
{
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    core::SpatialEnv env({workload::makeMobileNet()}, opt);

    CoOptimizer driver(env, smallConfig(DriverConfig::unico(), 5));
    const auto unico = driver.run();
    // Same number of full-budget-equivalent samples for random.
    const auto random = randomSearch(env, 32, 48, 5);

    std::vector<moo::Objectives> all;
    for (const auto *res : {&unico, &random})
        for (const auto &y : res->front.points())
            all.push_back(y);
    ASSERT_FALSE(all.empty());
    const auto ideal = moo::idealPoint(all);
    const auto nadir = moo::nadirPoint(all);
    auto hv = [&](const CoSearchResult &res) {
        std::vector<moo::Objectives> pts;
        for (const auto &y : res.front.points())
            pts.push_back(moo::normalizeObjectives(y, ideal, nadir));
        return moo::hypervolume(pts,
                                moo::Objectives(ideal.size(), 1.1));
    };
    // Guided search should cover at least ~85% of random's volume
    // even at these tiny budgets (usually much more).
    EXPECT_GE(hv(unico), 0.85 * hv(random));
}

TEST(Integration, AscendUnicoEndToEnd)
{
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    core::AscendEnv env({workload::makeFsrcnn(120, 320)}, opt);
    DriverConfig cfg = smallConfig(DriverConfig::unico());
    cfg.batchSize = 6;
    cfg.maxIter = 2;
    cfg.sh.bMax = 16;
    CoOptimizer driver(env, cfg);
    const auto result = driver.run();
    ASSERT_FALSE(result.front.empty());
    for (const auto &entry : result.front.entries()) {
        const auto &rec = result.records[entry.id];
        EXPECT_LE(rec.ppa.areaMm2, 200.0);
    }
    // CAModel economics: hours, not seconds.
    EXPECT_GT(result.totalHours, 1.0);
}

TEST(Integration, ImpossibleConstraintYieldsEmptyFront)
{
    // A power budget no design can meet: front stays empty, nothing
    // crashes, every record is marked constraint-violating.
    class StarvedEnv : public core::SpatialEnv
    {
      public:
        using core::SpatialEnv::SpatialEnv;
        double powerBudgetMw() const override { return 1e-6; }
    };
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    StarvedEnv env({workload::makeMobileNet()}, opt);
    CoOptimizer driver(env, smallConfig(DriverConfig::unico()));
    const auto result = driver.run();
    EXPECT_TRUE(result.front.empty());
    for (const auto &rec : result.records)
        EXPECT_FALSE(rec.constraintOk);
}

TEST(Integration, AllMethodsProduceComparableResultsOnSameEnv)
{
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    core::SpatialEnv env({workload::makeResNet()}, opt);

    std::vector<CoSearchResult> results;
    for (auto cfg : {DriverConfig::unico(), DriverConfig::hascoLike(),
                     DriverConfig::mobohbLike(),
                     DriverConfig::shChampion(),
                     DriverConfig::mshChampion()}) {
        CoOptimizer driver(env, smallConfig(std::move(cfg)));
        results.push_back(driver.run());
    }
    baselines::Nsga2Config ncfg;
    ncfg.population = 8;
    ncfg.generations = 3;
    ncfg.swBudget = 48;
    ncfg.seed = 21;
    results.push_back(baselines::runNsga2(env, ncfg));

    for (const auto &res : results) {
        EXPECT_FALSE(res.records.empty());
        EXPECT_GT(res.totalHours, 0.0);
        EXPECT_FALSE(res.trace.empty());
        // Hours must be monotone along every trace.
        for (std::size_t i = 1; i < res.trace.size(); ++i)
            EXPECT_GE(res.trace[i].hours, res.trace[i - 1].hours);
    }
}

TEST(Integration, SensitivityObjectiveReducesMeanR)
{
    // With R as a fourth objective, the sampler should drift toward
    // lower-R regions; compare mean R of the final iteration against
    // the no-R configuration under the same seed. (Statistical, but
    // averaged over 3 seeds to be stable.)
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    core::SpatialEnv env({workload::makeXception()}, opt);
    double with_r = 0.0, without_r = 0.0;
    for (std::uint64_t seed : {31ULL, 47ULL, 91ULL}) {
        auto cfg_r = smallConfig(DriverConfig::unico(), seed);
        cfg_r.maxIter = 6;
        auto cfg_nor = cfg_r;
        cfg_nor.useRobustness = false;
        const auto res_r = CoOptimizer(env, cfg_r).run();
        const auto res_nor = CoOptimizer(env, cfg_nor).run();
        auto last_iter_mean_r = [](const CoSearchResult &res) {
            double acc = 0.0;
            int n = 0;
            int last = 0;
            for (const auto &rec : res.records)
                last = std::max(last, rec.iteration);
            for (const auto &rec : res.records) {
                if (rec.iteration >= last - 1 && rec.ppa.feasible) {
                    acc += rec.sensitivity;
                    ++n;
                }
            }
            return n ? acc / n : 0.0;
        };
        with_r += last_iter_mean_r(res_r);
        without_r += last_iter_mean_r(res_nor);
    }
    // Allow slack: the trend should hold on average.
    EXPECT_LE(with_r, without_r * 1.25);
}

// ---------------------------------------------------------------------
// Backend-parametric end-to-end: the identical co-search + kill/resume
// contract must hold on every registered evaluation stack, built
// through the registry exactly like the CLI and benches build it.
// ---------------------------------------------------------------------

namespace {

class BackendEndToEnd : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<core::CoSearchEnv>
    makeEnv() const
    {
        core::BackendOptions opt;
        opt.maxShapesPerNetwork = 2;
        const char *net = std::string(GetParam()) == "ascend"
                              ? "fsrcnn_120x320"
                              : "mobilenet";
        return core::makeBackendEnv(GetParam(),
                                    {workload::makeNetwork(net)}, opt);
    }

    DriverConfig
    makeConfig() const
    {
        auto cfg = smallConfig(DriverConfig::unico());
        cfg.maxIter = 2;
        if (std::string(GetParam()) == "ascend") {
            cfg.batchSize = 4;
            cfg.sh.bMax = 12;
        }
        return cfg;
    }
};

} // namespace

TEST_P(BackendEndToEnd, KillAndResumeReproducesStraightRun)
{
    const auto cfg = makeConfig();
    const auto straight_env = makeEnv();
    CoOptimizer straight(*straight_env, cfg);
    const CoSearchResult full = straight.run();
    ASSERT_FALSE(full.records.empty());
    EXPECT_FALSE(full.front.empty());

    const std::string path = testing::TempDir() + "unico_e2e_" +
                             GetParam() + ".json";
    auto part = cfg;
    part.maxIter = 1;
    part.checkpointPath = path;
    const auto part_env = makeEnv();
    CoOptimizer first(*part_env, part);
    first.run();

    // The checkpoint names the stack that produced it.
    const auto ck = core::loadCheckpointFile(path);
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->backend, GetParam());

    auto rest = cfg;
    rest.checkpointPath = path;
    rest.resumeFromCheckpoint = true;
    const auto rest_env = makeEnv();
    CoOptimizer second(*rest_env, rest);
    const CoSearchResult resumed = second.run();

    ASSERT_EQ(full.records.size(), resumed.records.size());
    for (std::size_t i = 0; i < full.records.size(); ++i) {
        EXPECT_EQ(full.records[i].hw, resumed.records[i].hw);
        EXPECT_EQ(full.records[i].ppa.latencyMs,
                  resumed.records[i].ppa.latencyMs);
        EXPECT_EQ(full.records[i].budgetSpent,
                  resumed.records[i].budgetSpent);
    }
    EXPECT_EQ(full.totalHours, resumed.totalHours);
    EXPECT_EQ(full.front.size(), resumed.front.size());
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendEndToEnd,
                         ::testing::Values("spatial", "ascend"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });
