/**
 * @file
 * Property-based tests of the analytical cost model: invariants that
 * must hold over random (operator, hardware, mapping) triples, and
 * the physical bounds no cost-model change may break (compute
 * roofline, compulsory DRAM energy, buffer capacity, SRAM energy
 * monotone in capacity).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "costmodel/analytical.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using accel::Ppa;
using accel::Scenario;
using accel::SpatialDesignSpace;
using costmodel::AnalyticalCostModel;
using mapping::Mapping;
using mapping::MappingSpace;
using workload::TensorOp;

namespace {

std::vector<TensorOp>
sampleOps()
{
    std::vector<TensorOp> ops;
    for (const char *name : {"mobilenet", "resnet", "bert", "unet"}) {
        for (const auto &wop :
             workload::makeNetwork(name).dominantOps(2))
            ops.push_back(wop.op);
    }
    return ops;
}

} // namespace

/** Sweep across operators from the zoo. */
class CostModelPropertySweep : public ::testing::TestWithParam<int>
{
  protected:
    TensorOp op() const { return sampleOps()[GetParam()]; }
};

TEST_P(CostModelPropertySweep, FeasibleResultsAreAlwaysValid)
{
    const AnalyticalCostModel model;
    const SpatialDesignSpace ds(Scenario::Edge);
    const TensorOp operator_ = op();
    const MappingSpace space(operator_);
    common::Rng rng(1000 + GetParam());
    int feasible = 0;
    for (int i = 0; i < 400; ++i) {
        const auto hw = ds.decode(ds.space().randomPoint(rng));
        const Mapping m = space.random(rng);
        const Ppa ppa = model.evaluate(operator_, hw, m);
        if (!ppa.feasible)
            continue;
        ++feasible;
        ASSERT_TRUE(ppa.valid());
        ASSERT_GT(ppa.latencyMs, 0.0);
        ASSERT_GT(ppa.powerMw, 0.0);
        ASSERT_GT(ppa.energyMj, 0.0);
        ASSERT_DOUBLE_EQ(ppa.areaMm2, model.areaMm2(hw));
    }
    // Minimal mappings guarantee some feasibility exists; random ones
    // should find at least a handful too.
    const Mapping minimal = space.minimal();
    bool any_minimal_feasible = false;
    for (int i = 0; i < 50; ++i) {
        const auto hw = ds.decode(ds.space().randomPoint(rng));
        any_minimal_feasible |=
            model.evaluate(operator_, hw, minimal).feasible;
    }
    EXPECT_TRUE(any_minimal_feasible);
    (void)feasible;
}

TEST_P(CostModelPropertySweep, MinimalMappingFeasibleOnRoomyHw)
{
    const AnalyticalCostModel model;
    const TensorOp operator_ = op();
    const MappingSpace space(operator_);
    accel::SpatialHwConfig hw;
    hw.peX = hw.peY = 8;
    hw.l1Bytes = 32 * 1024;
    hw.l2Bytes = 1024 * 1024;
    hw.nocBandwidth = 128;
    EXPECT_TRUE(model.evaluate(operator_, hw, space.minimal()).feasible);
}

TEST_P(CostModelPropertySweep, LatencyScalesDownWithClock)
{
    costmodel::TechParams slow_tech;
    slow_tech.clockGhz = 0.5;
    costmodel::TechParams fast_tech;
    fast_tech.clockGhz = 2.0;
    const AnalyticalCostModel slow(slow_tech), fast(fast_tech);
    const TensorOp operator_ = op();
    const MappingSpace space(operator_);
    accel::SpatialHwConfig hw;
    hw.peX = hw.peY = 8;
    hw.l1Bytes = 32 * 1024;
    hw.l2Bytes = 1024 * 1024;
    const Mapping m = space.minimal();
    const Ppa p_slow = slow.evaluate(operator_, hw, m);
    const Ppa p_fast = fast.evaluate(operator_, hw, m);
    ASSERT_TRUE(p_slow.feasible && p_fast.feasible);
    EXPECT_NEAR(p_slow.latencyMs / p_fast.latencyMs, 4.0, 1e-6);
}

TEST_P(CostModelPropertySweep, EnergyIndependentOfClock)
{
    costmodel::TechParams a_tech, b_tech;
    a_tech.clockGhz = 0.8;
    b_tech.clockGhz = 1.6;
    const AnalyticalCostModel a(a_tech), b(b_tech);
    const TensorOp operator_ = op();
    const MappingSpace space(operator_);
    accel::SpatialHwConfig hw;
    hw.peX = hw.peY = 4;
    hw.l1Bytes = 32 * 1024;
    hw.l2Bytes = 1024 * 1024;
    const Mapping m = space.minimal();
    const Ppa pa = a.evaluate(operator_, hw, m);
    const Ppa pb = b.evaluate(operator_, hw, m);
    ASSERT_TRUE(pa.feasible && pb.feasible);
    EXPECT_NEAR(pa.energyMj, pb.energyMj, pa.energyMj * 1e-9);
}

TEST_P(CostModelPropertySweep, BiggerL1NeverBreaksFeasibility)
{
    const AnalyticalCostModel model;
    const SpatialDesignSpace ds(Scenario::Edge);
    const TensorOp operator_ = op();
    const MappingSpace space(operator_);
    common::Rng rng(2000 + GetParam());
    for (int i = 0; i < 200; ++i) {
        auto hw = ds.decode(ds.space().randomPoint(rng));
        const Mapping m = space.random(rng);
        const bool feasible_before =
            model.evaluate(operator_, hw, m).feasible;
        hw.l1Bytes *= 4;
        hw.l2Bytes *= 4;
        const bool feasible_after =
            model.evaluate(operator_, hw, m).feasible;
        if (feasible_before) {
            ASSERT_TRUE(feasible_after);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ZooOps, CostModelPropertySweep,
                         ::testing::Range(0, 8));

TEST(CostModelProperty, DeterministicEvaluation)
{
    const AnalyticalCostModel model;
    const auto ops = sampleOps();
    const MappingSpace space(ops[0]);
    common::Rng rng(77);
    accel::SpatialHwConfig hw;
    hw.peX = 6;
    hw.peY = 9;
    hw.l1Bytes = 8 * 1024;
    hw.l2Bytes = 256 * 1024;
    const Mapping m = space.random(rng);
    const Ppa a = model.evaluate(ops[0], hw, m);
    const Ppa b = model.evaluate(ops[0], hw, m);
    EXPECT_DOUBLE_EQ(a.latencyMs, b.latencyMs);
    EXPECT_DOUBLE_EQ(a.energyMj, b.energyMj);
}

/* --------------------- physical invariants ---------------------- */

namespace {

/** 16-bit footprint in bytes of the input, weight and output tiles
 *  of tile extents @p t (indexed by mapping::Dim*) for @p op. */
struct TileBytes
{
    std::int64_t input;
    std::int64_t weight;
    std::int64_t output;
};

TileBytes
tileBytes(const TensorOp &op, const std::array<std::int64_t, 7> &t)
{
    using namespace mapping;
    const std::int64_t channels =
        op.kind == workload::OpKind::DepthwiseConv2D ? t[DimK] : t[DimC];
    const std::int64_t ih = (t[DimY] - 1) * op.strideY + t[DimR];
    const std::int64_t iw = (t[DimX] - 1) * op.strideX + t[DimS];
    return {2 * t[DimN] * channels * ih * iw,
            2 * t[DimK] * t[DimC] * t[DimR] * t[DimS],
            2 * t[DimN] * t[DimK] * t[DimY] * t[DimX]};
}

} // namespace

/**
 * Over random (zoo layer, edge or cloud design point, mapping)
 * triples: a structurally valid mapping is infeasible exactly when a
 * tile over-fills its buffer (the stationary operand single-, the
 * streamed ones double-buffered in L1; L2 holds the output plus 1.5x
 * input and weight); and a feasible result is no faster than the PE
 * array's MAC roofline and spends at least the MAC energy plus one
 * DRAM access per input, weight and output element.
 */
TEST(SpatialInvariants, HoldOverRandomZooTriples)
{
    std::vector<TensorOp> layers;
    for (const char *name :
         {"mobilenet", "mobilenet_v2", "resnet", "bert", "unet", "vit",
          "xception", "efficientnet_v2"})
        for (const auto &wop : workload::makeNetwork(name).uniqueOps())
            layers.push_back(wop.op);
    const AnalyticalCostModel model;
    const costmodel::TechParams &tech = model.tech();
    const SpatialDesignSpace edge(Scenario::Edge);
    const SpatialDesignSpace cloud(Scenario::Cloud);
    common::Rng rng(131);
    int feasible = 0, over = 0, depthwise = 0;
    for (int trial = 0; trial < 6000; ++trial) {
        const TensorOp &op = layers[rng.uniformInt(layers.size())];
        const SpatialDesignSpace &ds = rng.bernoulli(0.5) ? edge : cloud;
        const accel::SpatialHwConfig hw =
            ds.decode(ds.space().randomPoint(rng));
        const MappingSpace space(op);
        const Mapping m = space.random(rng);
        ASSERT_TRUE(space.isValid(m));
        const Ppa ppa = model.evaluate(op, hw, m);

        const TileBytes t1 = tileBytes(op, m.l1Tile);
        const TileBytes t2 = tileBytes(op, m.l2Tile);
        const std::int64_t l1_need =
            hw.dataflow == accel::Dataflow::WeightStationary
                ? t1.weight + 2 * (t1.input + t1.output)
                : t1.output + 2 * (t1.input + t1.weight);
        // 2 * (output + 1.5 * (input + weight)), kept integral.
        const std::int64_t l2_need_x2 =
            2 * t2.output + 3 * (t2.input + t2.weight);
        const bool fits =
            l1_need <= hw.l1Bytes && l2_need_x2 <= 2 * hw.l2Bytes;
        ASSERT_EQ(ppa.feasible, fits)
            << op.name << " " << hw.describe() << " " << m.describe();
        if (!fits) {
            ++over;
            continue;
        }
        ++feasible;
        if (op.kind == workload::OpKind::DepthwiseConv2D)
            ++depthwise;

        const double macs = static_cast<double>(op.macs());
        const double roofline_ms =
            macs / (static_cast<double>(hw.pes()) * tech.clockGhz * 1e6);
        EXPECT_GE(ppa.latencyMs, roofline_ms) << op.name;
        // The model reports no DRAM byte count, so the compulsory
        // traffic bound goes through energy (pJ -> mJ).
        const double elems = static_cast<double>(
            op.inputElems() + op.weightElems() + op.outputElems());
        const double floor_mj =
            (macs * tech.macPj + tech.dramPj * elems) * 1e-9;
        EXPECT_GE(ppa.energyMj, floor_mj) << op.name;
    }
    EXPECT_GE(feasible, 1000);
    EXPECT_GE(over, 1000);
    EXPECT_GE(depthwise, 100);
}

/** The register-miss L1 energy and the per-access L2 energy follow
 *  sqrt(capacity): neither falls as its buffer grows, including
 *  below the sqrt clamp. */
TEST(SpatialInvariants, SramAccessEnergyNeverFallsWithCapacity)
{
    const AnalyticalCostModel model;
    const TensorOp op = sampleOps().front();
    accel::SpatialHwConfig hw;
    hw.peX = hw.peY = 8;
    costmodel::PreparedSpatialQuery prev{};
    bool first = true;
    for (std::int64_t bytes = 16; bytes <= (std::int64_t{64} << 20);
         bytes += bytes / 8) {
        hw.l1Bytes = hw.l2Bytes = bytes;
        const costmodel::PreparedSpatialQuery q = model.prepare(op, hw);
        if (!first) {
            EXPECT_GE(q.eL1, prev.eL1) << bytes;
            EXPECT_GE(q.l2AccessPj, prev.l2AccessPj) << bytes;
        }
        prev = q;
        first = false;
    }
    hw.l1Bytes = hw.l2Bytes = 1024;
    const costmodel::PreparedSpatialQuery small = model.prepare(op, hw);
    EXPECT_GT(prev.eL1, small.eL1);
    EXPECT_GT(prev.l2AccessPj, small.l2AccessPj);
}
