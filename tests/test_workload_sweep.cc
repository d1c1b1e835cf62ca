/**
 * @file
 * Breadth integration sweep: every zoo network must flow through the
 * full open-source pipeline (env construction, mapping search on a
 * mid-range HW point, PPA aggregation) and produce sane numbers.
 */

#include <gtest/gtest.h>

#include "core/spatial_env.hh"
#include "roofline.hh"
#include "workload/model_zoo.hh"

using namespace unico;

class WorkloadSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    static accel::HwPoint
    midHw(const core::SpatialEnv &env)
    {
        accel::HwPoint p(env.hwSpace().dims(), 0);
        p[0] = 7; // 8x8 PEs
        p[1] = 7;
        p[2] = env.hwSpace().axis(2).values.size() - 1;
        p[3] = env.hwSpace().axis(3).values.size() - 1;
        p[4] = 1;
        return p;
    }
};

TEST_P(WorkloadSweep, EndToEndFeasibleMappingFound)
{
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 3;
    core::SpatialEnv env({workload::makeNetwork(GetParam())}, opt);
    auto run = env.createRun(midHw(env), 99);
    run->step(40);
    const accel::Ppa ppa = run->bestPpa();
    ASSERT_TRUE(ppa.feasible) << GetParam();
    EXPECT_GT(ppa.latencyMs, 0.0);
    EXPECT_LT(ppa.latencyMs, 1e6) << GetParam();
    EXPECT_GT(ppa.powerMw, 0.0);
    EXPECT_LT(ppa.powerMw, 20000.0) << GetParam();
}

TEST_P(WorkloadSweep, LatencyLowerBoundedByRoofline)
{
    // The achieved latency of the dominant layers can never beat the
    // machine-model roofline of the same layers (64 MACs at 1 GHz,
    // 32 B/cycle DRAM in the cost model).
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 3;
    const auto net = workload::makeNetwork(GetParam());
    core::SpatialEnv env({net}, opt);
    auto run = env.createRun(midHw(env), 99);
    run->step(60);
    const accel::Ppa ppa = run->bestPpa();
    ASSERT_TRUE(ppa.feasible);

    // Roofline over the same dominant layers (count-weighted).
    workload::Network dominant("dominant");
    for (const auto &wop : net.dominantOps(3))
        for (std::int64_t i = 0; i < wop.count; ++i)
            dominant.add(wop.op);
    const double roof_cycles =
        oracle::rooflineCycles(dominant, 64.0, 32.0);
    const double roof_ms = roof_cycles / 1e6; // 1 GHz
    EXPECT_GE(ppa.latencyMs, 0.9 * roof_ms) << GetParam();
}

TEST_P(WorkloadSweep, SensitivityFiniteAcrossZoo)
{
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    core::SpatialEnv env({workload::makeNetwork(GetParam())}, opt);
    auto run = env.createRun(midHw(env), 7);
    run->step(50);
    const double r = run->sensitivity(0.05);
    EXPECT_TRUE(std::isfinite(r)) << GetParam();
    EXPECT_GE(r, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, WorkloadSweep,
    ::testing::ValuesIn(unico::workload::modelNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });
