/**
 * @file
 * Tests for the shared layered-run core (core/layered_run.hh): PPA
 * aggregation, charging plumbing, per-layer seeding order, the
 * degradation hook and the degenerate-PPA regression fix — all
 * against a stub policy, independent of any real backend.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/layered_run.hh"
#include "workload/tensor_op.hh"

using namespace unico;
using core::LayeredMappingRun;
using core::LayeredRunPolicy;
using workload::TensorOp;
using workload::WeightedOp;

namespace {

/** In-memory layer search returning a fixed evaluation. */
class StubLayer final : public mapping::SearchRunBase
{
  public:
    StubLayer(double latency_ms, double energy_mj, bool feasible,
              bool inert = false)
        : inert_(inert)
    {
        eval_.ppa.feasible = feasible;
        eval_.ppa.latencyMs = latency_ms;
        eval_.ppa.energyMj = energy_mj;
        eval_.loss = feasible ? latency_ms : 1e12;
    }

    void
    step(int evals) override
    {
        if (inert_)
            return; // models a layer whose search never starts
        for (int i = 0; i < evals; ++i)
            recordEval(eval_);
        if (onStep_)
            onStep_(evals);
    }

    std::function<void(int)> onStep_;

  private:
    mapping::MappingEval eval_;
    bool inert_ = false;
};

/** Per-layer evaluation the stub policy hands out. */
struct LayerSpec
{
    double latencyMs = 1.0;
    double energyMj = 1.0;
    bool feasible = true;
    bool inert = false;
};

class StubPolicy final : public LayeredRunPolicy
{
  public:
    StubPolicy(std::vector<LayerSpec> specs, double per_eval_charge)
        : specs_(std::move(specs)), perEval_(per_eval_charge)
    {
    }

    std::unique_ptr<mapping::SearchRunBase>
    startLayer(std::size_t layer, std::uint64_t seed) override
    {
        startedLayers_.push_back(layer);
        seeds_.push_back(seed);
        const auto &s = specs_.at(layer);
        auto run = std::make_unique<StubLayer>(s.latencyMs, s.energyMj,
                                               s.feasible, s.inert);
        if (perEval_ > 0.0)
            run->onStep_ = [this](int evals) {
                charge(perEval_ * evals);
            };
        return run;
    }

    double areaMm2() const override { return 7.5; }

    bool
    degradeToAnalytical() override
    {
        return ++degradeCalls_ == 1;
    }

    std::vector<std::size_t> startedLayers_;
    std::vector<std::uint64_t> seeds_;
    int degradeCalls_ = 0;

  private:
    std::vector<LayerSpec> specs_;
    double perEval_;
};

std::vector<WeightedOp>
makeLayers(const std::vector<std::int64_t> &counts)
{
    std::vector<WeightedOp> layers;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        WeightedOp wop{TensorOp::conv("l" + std::to_string(i), 8, 4,
                                      10 + static_cast<std::int64_t>(i),
                                      10, 3, 3),
                       counts[i]};
        layers.push_back(wop);
    }
    return layers;
}

LayeredMappingRun
makeRun(const std::vector<WeightedOp> &layers,
        std::vector<LayerSpec> specs, double per_eval_charge = 0.0,
        std::uint64_t seed = 42, StubPolicy **policy_out = nullptr)
{
    auto policy =
        std::make_unique<StubPolicy>(std::move(specs), per_eval_charge);
    if (policy_out)
        *policy_out = policy.get();
    return LayeredMappingRun(layers, std::move(policy), seed);
}

} // namespace

TEST(LayeredRun, AggregatesCountWeightedPpa)
{
    const auto layers = makeLayers({2, 1});
    auto run = makeRun(layers, {{2.0, 4.0, true}, {3.0, 6.0, true}});
    run.step(1);

    const accel::Ppa ppa = run.bestPpa();
    ASSERT_TRUE(ppa.feasible);
    // latency = 2*2 + 1*3, energy = 2*4 + 1*6 (count-weighted sums).
    EXPECT_DOUBLE_EQ(ppa.latencyMs, 7.0);
    EXPECT_DOUBLE_EQ(ppa.energyMj, 14.0);
    EXPECT_DOUBLE_EQ(ppa.powerMw, 14.0 / 7.0 * 1000.0);
    EXPECT_DOUBLE_EQ(ppa.areaMm2, 7.5);
}

TEST(LayeredRun, InfeasibleLayerMakesNetworkInfeasible)
{
    const auto layers = makeLayers({1, 1});
    auto run = makeRun(layers, {{2.0, 4.0, true}, {3.0, 6.0, false}});
    run.step(1);
    EXPECT_FALSE(run.bestPpa().feasible);
}

// Regression for the degenerate aggregation bug: when every feasible
// incumbent reports zero latency (a broken cost-model corner), the old
// SpatialMappingRun::bestPpa() divided energy by zero latency and
// returned powerMw == 0 on a "feasible" point, letting a nonsense
// design onto the Pareto front. The shared core must flag it
// infeasible instead.
TEST(LayeredRun, ZeroLatencyAggregateIsInfeasibleNotFreePower)
{
    const auto layers = makeLayers({1});
    auto run = makeRun(layers, {{0.0, 5.0, true}});
    run.step(1);

    const accel::Ppa ppa = run.bestPpa();
    EXPECT_FALSE(ppa.feasible);
    EXPECT_FALSE(std::isnan(ppa.powerMw));
    EXPECT_FALSE(std::isinf(ppa.powerMw));
}

TEST(LayeredRun, NoStepsMeansNoBest)
{
    const auto layers = makeLayers({1});
    auto run = makeRun(layers, {{1.0, 1.0, true}});
    EXPECT_FALSE(run.bestPpa().feasible);
    EXPECT_EQ(run.spent(), 0);
    EXPECT_TRUE(run.bestLossHistory().empty());
}

TEST(LayeredRun, PolicyChargedCostFlowsThroughChargeSink)
{
    const auto layers = makeLayers({1, 1});
    auto run = makeRun(layers, {{1.0, 1.0, true}, {1.0, 1.0, true}},
                       /*per_eval_charge=*/0.5);
    run.step(4);
    // 4 sweeps x 2 layers x 0.5 s, reported by the policy's
    // evaluators via charge(), the only charging path.
    EXPECT_DOUBLE_EQ(run.chargedSeconds(), 4.0);
}

TEST(LayeredRun, PerLayerSeedsDrawnInLayerOrder)
{
    const std::uint64_t seed = 1234;
    const auto layers = makeLayers({1, 1, 1});
    StubPolicy *policy = nullptr;
    auto run = makeRun(layers,
                       {{1.0, 1.0, true}, {1.0, 1.0, true},
                        {1.0, 1.0, true}},
                       0.0, seed, &policy);
    ASSERT_NE(policy, nullptr);
    ASSERT_EQ(policy->startedLayers_,
              (std::vector<std::size_t>{0, 1, 2}));

    // The determinism contract: seeds are successive draws of one
    // common::Rng seeded with the run seed.
    common::Rng seeder(seed);
    for (std::size_t l = 0; l < layers.size(); ++l)
        EXPECT_EQ(policy->seeds_[l], seeder.next()) << "layer " << l;
}

TEST(LayeredRun, UnmappedLayerChargesLatencyPenaltyInLoss)
{
    const auto layers = makeLayers({3});
    auto run = makeRun(layers, {{1.0, 1.0, true, /*inert=*/true}});
    run.step(1);
    ASSERT_EQ(run.bestLossHistory().size(), 1u);
    // A layer with zero spent evaluations contributes the unmapped
    // penalty, count-weighted.
    EXPECT_DOUBLE_EQ(run.bestLossHistory().back(),
                     3.0 * core::kUnmappedLatencyMs);
}

TEST(LayeredRun, DegradeForwardsToPolicy)
{
    const auto layers = makeLayers({1});
    StubPolicy *policy = nullptr;
    auto run = makeRun(layers, {{1.0, 1.0, true}}, 0.0, 7, &policy);
    EXPECT_TRUE(run.degradeToAnalytical());
    EXPECT_FALSE(run.degradeToAnalytical());
    EXPECT_EQ(policy->degradeCalls_, 2);
}

TEST(LayeredRun, LayersDigestIsOrderAndCountSensitive)
{
    const auto a = makeLayers({2, 1});
    auto b = a;
    std::swap(b[0], b[1]);
    auto c = a;
    c[0].count += 1;

    const auto da = core::layersDigest(a);
    EXPECT_EQ(da, core::layersDigest(makeLayers({2, 1})));
    EXPECT_NE(da, core::layersDigest(b));
    EXPECT_NE(da, core::layersDigest(c));
    EXPECT_NE(da, core::layersDigest({}));
}
