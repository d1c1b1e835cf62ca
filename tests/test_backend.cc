/**
 * @file
 * Tests for the backends (core/backend.hh): the name table, typed
 * lookup failure, stack-identity reporting, and the mapping of a
 * JobSpec's backend fields onto BackendOptions (core/run_spec.hh)
 * with foreign-field rejection.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/run_spec.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::BackendError;
using core::BackendOptions;

namespace {

/** A JobSpec on @p backend with @p edit applied. */
template <typename Edit>
core::JobSpec
spec(const std::string &backend, Edit edit)
{
    core::JobSpec s;
    s.backend = backend;
    edit(s);
    return s;
}

std::vector<workload::Network>
nets(const std::string &name)
{
    return {workload::makeNetwork(name)};
}

} // namespace

TEST(BackendRegistry, BuiltinsPresentAndSorted)
{
    const auto names = core::backendNames();
    EXPECT_EQ(names, (std::vector<std::string>{"ascend", "spatial"}));
    EXPECT_NO_THROW(core::requireBackend("spatial"));
    EXPECT_NO_THROW(core::requireBackend("ascend"));
    EXPECT_THROW(core::requireBackend("tpu"), BackendError);
}

TEST(BackendRegistry, UnknownBackendThrowsTypedErrorListingKnown)
{
    try {
        core::makeBackendEnv("npu9000", nets("mobilenet"),
                             BackendOptions{});
        FAIL() << "expected BackendError";
    } catch (const BackendError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("npu9000"), std::string::npos);
        EXPECT_NE(msg.find("spatial"), std::string::npos)
            << "error should list the known backends: " << msg;
        EXPECT_NE(msg.find("ascend"), std::string::npos);
    }
}

TEST(BackendRegistry, FactoriesProduceMatchingStackIdentity)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    const auto spatial =
        core::makeBackendEnv("spatial", nets("mobilenet"), opt);
    const auto ascend =
        core::makeBackendEnv("ascend", nets("fsrcnn_120x320"), opt);

    EXPECT_EQ(spatial->backendName(), "spatial");
    EXPECT_EQ(spatial->scenarioName(), "edge");
    EXPECT_NE(spatial->workloadDigest(), 0u);
    EXPECT_FALSE(spatial->expertDefault().has_value());

    EXPECT_EQ(ascend->backendName(), "ascend");
    EXPECT_EQ(ascend->scenarioName(), "area200");
    EXPECT_NE(ascend->workloadDigest(), 0u);
    ASSERT_TRUE(ascend->expertDefault().has_value());
    EXPECT_EQ(ascend->expertDefault()->size(),
              ascend->hwSpace().dims());
}

TEST(BackendRegistry, WorkloadDigestTracksTheLayerStack)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    const auto a = core::makeBackendEnv("spatial", nets("mobilenet"), opt);
    const auto b = core::makeBackendEnv("spatial", nets("mobilenet"), opt);
    const auto c = core::makeBackendEnv("spatial", nets("resnet"), opt);
    EXPECT_EQ(a->workloadDigest(), b->workloadDigest());
    EXPECT_NE(a->workloadDigest(), c->workloadDigest());
}

TEST(BackendRegistry, ScenarioNameFollowsOptions)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.scenario = accel::Scenario::Cloud;
    const auto cloud =
        core::makeBackendEnv("spatial", nets("mobilenet"), opt);
    EXPECT_EQ(cloud->scenarioName(), "cloud");

    opt.areaBudgetMm2 = 120.0;
    const auto ascend =
        core::makeBackendEnv("ascend", nets("fsrcnn_120x320"), opt);
    EXPECT_EQ(ascend->scenarioName(), "area120");
}

TEST(BackendOptionsParse, SpatialDefaultsAndOverrides)
{
    const auto none = [](core::JobSpec &) {};
    const auto def = core::backendOptions(spec("spatial", none));
    EXPECT_EQ(def.scenario, accel::Scenario::Edge);
    EXPECT_EQ(def.engine, mapping::EngineKind::Annealing);
    EXPECT_EQ(def.maxShapesPerNetwork, 5u);

    const auto cloud = core::backendOptions(spec("spatial", [](auto &s) {
        s.scenario = "cloud";
        s.engine = "genetic";
        s.maxShapes = 3;
    }));
    EXPECT_EQ(cloud.scenario, accel::Scenario::Cloud);
    EXPECT_EQ(cloud.engine, mapping::EngineKind::Genetic);
    EXPECT_EQ(cloud.maxShapesPerNetwork, 3u);

    EXPECT_THROW(core::backendOptions(spec(
                     "spatial", [](auto &s) { s.scenario = "mars"; })),
                 BackendError);
    EXPECT_THROW(core::backendOptions(spec(
                     "spatial", [](auto &s) { s.engine = "quantum"; })),
                 BackendError);
}

TEST(BackendOptionsParse, SpatialRejectsForeignAreaBudget)
{
    try {
        core::backendOptions(
            spec("spatial", [](auto &s) { s.areaBudgetMm2 = 100.0; }));
        FAIL() << "expected BackendError";
    } catch (const BackendError &e) {
        EXPECT_STREQ(e.what(),
                     "backend 'spatial' does not support area_budget");
    }
}

TEST(BackendOptionsParse, AscendDefaultsAndOverrides)
{
    const auto def =
        core::backendOptions(spec("ascend", [](core::JobSpec &) {}));
    EXPECT_DOUBLE_EQ(def.areaBudgetMm2, 200.0);

    // The given value, not a printed copy of it.
    const auto tight = core::backendOptions(
        spec("ascend", [](auto &s) { s.areaBudgetMm2 = 96.1234567; }));
    EXPECT_EQ(tight.areaBudgetMm2, 96.1234567);

    // A given non-positive value is an error, never the default.
    for (double bad : {0.0, -3.0, std::nan("")})
        EXPECT_THROW(core::backendOptions(spec(
                         "ascend", [&](auto &s) { s.areaBudgetMm2 = bad; })),
                     BackendError)
            << bad;
    for (std::int64_t bad : {0, -3})
        EXPECT_THROW(core::backendOptions(spec(
                         "ascend", [&](auto &s) { s.maxShapes = bad; })),
                     BackendError)
            << bad;
}

TEST(BackendOptionsParse, AscendRejectsForeignSpatialFields)
{
    EXPECT_THROW(core::backendOptions(
                     spec("ascend", [](auto &s) { s.scenario = "edge"; })),
                 BackendError);
    EXPECT_THROW(core::backendOptions(
                     spec("ascend", [](auto &s) { s.engine = "random"; })),
                 BackendError);
}

TEST(BackendOptionsParse, UnknownBackendThrows)
{
    EXPECT_THROW(
        core::backendOptions(spec("npu9000", [](core::JobSpec &) {})),
        BackendError);
}
