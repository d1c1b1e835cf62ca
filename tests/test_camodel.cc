/**
 * @file
 * Tests for the cycle-level Ascend-like simulator: feasibility,
 * double buffering, bank groups, extrapolation and cost charging,
 * and physical invariants over random (layer, hardware, mapping)
 * triples.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accel/ascend.hh"
#include "camodel/simulator.hh"
#include "common/rng.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using accel::CubeHwConfig;
using accel::Ppa;
using camodel::CubeMapping;
using camodel::CycleAccurateModel;
using camodel::GemmShape;
using camodel::SimStats;
using workload::TensorOp;

namespace {

TensorOp
gemmOp()
{
    return TensorOp::gemm("g", 512, 512, 512);
}

CubeMapping
baseMapping()
{
    CubeMapping m;
    m.m1 = 128;
    m.n1 = 128;
    m.k1 = 128;
    m.m0 = 32;
    m.n0 = 32;
    m.k0 = 32;
    return m;
}

} // namespace

TEST(GemmShapeLowering, ConvLowersToIm2col)
{
    const TensorOp conv = TensorOp::conv("c", 64, 32, 28, 28, 3, 3);
    const GemmShape g = GemmShape::fromOp(conv);
    EXPECT_EQ(g.m, 64);
    EXPECT_EQ(g.k, 32 * 3 * 3);
    EXPECT_EQ(g.n, 28 * 28);
}

TEST(GemmShapeLowering, DepthwiseChannelSequential)
{
    const TensorOp dw = TensorOp::depthwise("d", 128, 14, 14, 3, 3);
    const GemmShape g = GemmShape::fromOp(dw);
    EXPECT_EQ(g.m, 128);
    EXPECT_EQ(g.k, 9);
}

TEST(CaModel, DefaultConfigRunsFeasibly)
{
    const CycleAccurateModel model;
    SimStats stats;
    const Ppa ppa = model.evaluate(gemmOp(), CubeHwConfig::expertDefault(),
                                   baseMapping(), &stats);
    ASSERT_TRUE(ppa.feasible);
    EXPECT_GT(ppa.latencyMs, 0.0);
    EXPECT_GT(ppa.powerMw, 0.0);
    EXPECT_GT(stats.cycles, 0.0);
    EXPECT_GT(stats.l0Tiles, 0);
}

TEST(CaModel, L0OverflowInfeasible)
{
    const CycleAccurateModel model;
    CubeHwConfig hw = CubeHwConfig::expertDefault();
    hw.l0aBytes = 1024; // cannot hold a 32x32 int16 tile ping-ponged
    const Ppa ppa = model.evaluate(gemmOp(), hw, baseMapping());
    EXPECT_FALSE(ppa.feasible);
}

TEST(CaModel, L1OverflowInfeasible)
{
    const CycleAccurateModel model;
    CubeHwConfig hw = CubeHwConfig::expertDefault();
    hw.l1Bytes = 16 * 1024;
    const Ppa ppa = model.evaluate(gemmOp(), hw, baseMapping());
    EXPECT_FALSE(ppa.feasible);
}

TEST(CaModel, SingleBufferFitsWhereDoubleDoesNot)
{
    const CycleAccurateModel model;
    CubeHwConfig hw = CubeHwConfig::expertDefault();
    // Exactly one 32x32 int16 tile (2 KiB): ping-pong needs 4 KiB.
    hw.l0aBytes = 2048;
    CubeMapping db = baseMapping();
    db.doubleBufferA = true;
    EXPECT_FALSE(model.evaluate(gemmOp(), hw, db).feasible);
    CubeMapping sb = baseMapping();
    sb.doubleBufferA = false;
    EXPECT_TRUE(model.evaluate(gemmOp(), hw, sb).feasible);
}

TEST(CaModel, DoubleBufferingReducesLatency)
{
    const CycleAccurateModel model;
    const CubeHwConfig hw = CubeHwConfig::expertDefault();
    CubeMapping on = baseMapping();
    on.doubleBufferA = on.doubleBufferB = true;
    CubeMapping off = baseMapping();
    off.doubleBufferA = off.doubleBufferB = false;
    const Ppa p_on = model.evaluate(gemmOp(), hw, on);
    const Ppa p_off = model.evaluate(gemmOp(), hw, off);
    ASSERT_TRUE(p_on.feasible && p_off.feasible);
    EXPECT_LT(p_on.latencyMs, p_off.latencyMs);
}

TEST(CaModel, MoreBankGroupsNeverSlower)
{
    const CycleAccurateModel model;
    CubeHwConfig few = CubeHwConfig::expertDefault();
    few.l0aBanks = few.l0bBanks = 1;
    CubeHwConfig many = CubeHwConfig::expertDefault();
    many.l0aBanks = many.l0bBanks = 8;
    // Use single buffering so load time is on the critical path.
    CubeMapping m = baseMapping();
    m.doubleBufferA = m.doubleBufferB = false;
    const Ppa p_few = model.evaluate(gemmOp(), few, m);
    const Ppa p_many = model.evaluate(gemmOp(), many, m);
    ASSERT_TRUE(p_few.feasible && p_many.feasible);
    EXPECT_LE(p_many.latencyMs, p_few.latencyMs);
}

TEST(CaModel, BiggerCubeFinishesFaster)
{
    const CycleAccurateModel model;
    CubeHwConfig small = CubeHwConfig::expertDefault();
    small.cubeM = small.cubeN = small.cubeK = 8;
    CubeHwConfig large = CubeHwConfig::expertDefault();
    large.cubeM = large.cubeN = large.cubeK = 32;
    const Ppa p_small = model.evaluate(gemmOp(), small, baseMapping());
    const Ppa p_large = model.evaluate(gemmOp(), large, baseMapping());
    ASSERT_TRUE(p_small.feasible && p_large.feasible);
    EXPECT_LT(p_large.latencyMs, p_small.latencyMs);
    EXPECT_GT(model.areaMm2(large), model.areaMm2(small));
}

TEST(CaModel, ExtrapolationKeepsSimulationBounded)
{
    camodel::CubeTech tech;
    tech.maxSimulatedTiles = 500;
    const CycleAccurateModel capped(tech);
    const CycleAccurateModel full; // default large cap
    SimStats st_capped, st_full;
    const Ppa a = capped.evaluate(gemmOp(), CubeHwConfig::expertDefault(),
                                  baseMapping(), &st_capped);
    const Ppa b = full.evaluate(gemmOp(), CubeHwConfig::expertDefault(),
                                baseMapping(), &st_full);
    ASSERT_TRUE(a.feasible && b.feasible);
    EXPECT_TRUE(st_capped.extrapolated);
    EXPECT_LT(st_capped.l0Tiles, st_full.l0Tiles);
    // Extrapolated latency within 10% of the fully simulated one.
    EXPECT_NEAR(a.latencyMs / b.latencyMs, 1.0, 0.1);
}

TEST(CaModel, NominalEvalSecondsInPaperRange)
{
    const CycleAccurateModel model;
    SimStats stats;
    model.evaluate(gemmOp(), CubeHwConfig::expertDefault(), baseMapping(),
                   &stats);
    const double sec = model.nominalEvalSeconds(stats);
    EXPECT_GE(sec, 120.0);
    EXPECT_LE(sec, 600.0);
}

TEST(CaModel, AreaWithinEdgeConstraintForDefault)
{
    const CycleAccurateModel model;
    EXPECT_LT(model.areaMm2(CubeHwConfig::expertDefault()), 200.0);
}

TEST(CaModel, IcachePressureSlowsFusedKernels)
{
    const CycleAccurateModel model;
    CubeHwConfig small_ic = CubeHwConfig::expertDefault();
    small_ic.icacheBytes = 16 * 1024;
    CubeHwConfig big_ic = CubeHwConfig::expertDefault();
    big_ic.icacheBytes = 64 * 1024;
    CubeMapping fused = baseMapping();
    fused.fuseVector = true;
    const Ppa slow = model.evaluate(gemmOp(), small_ic, fused);
    const Ppa fast = model.evaluate(gemmOp(), big_ic, fused);
    ASSERT_TRUE(slow.feasible && fast.feasible);
    EXPECT_LT(fast.latencyMs, slow.latencyMs);
}

/* --------------------- physical invariants ---------------------- */

TEST(CubeInvariants, WorkedExampleMacCount)
{
    // CPRE_Lab6 Conv1: a 64x64x3 input, 64 3x3 filters, stride 1 and
    // same padding give a 64x64x64 output at 27 MACs per element.
    const TensorOp conv1 = TensorOp::conv("conv1", 64, 3, 64, 64, 3, 3);
    EXPECT_EQ(conv1.macs(), 7077888);
    const GemmShape g = GemmShape::fromOp(conv1);
    EXPECT_EQ(g.m * g.n * g.k, 7077888);
}

/**
 * Over random (unet / fsrcnn layer, design point, mapping) triples:
 * a tile over its buffer is infeasible (and only then); a feasible
 * result is no faster than the cube's MAC roofline; and a fully
 * simulated one moves at least the compulsory 16-bit A, B and C
 * footprint through DRAM.
 */
TEST(CubeInvariants, HoldOverRandomZooTriples)
{
    std::vector<TensorOp> layers;
    for (const char *name : {"unet", "fsrcnn_120x320"})
        for (const auto &wop : workload::makeNetwork(name).uniqueOps())
            layers.push_back(wop.op);
    const CycleAccurateModel model;
    const accel::AscendDesignSpace ds;
    common::Rng rng(97);
    int feasible = 0, over = 0, fully_simulated = 0;
    for (int trial = 0; trial < 800; ++trial) {
        const TensorOp &op = layers[rng.uniformInt(layers.size())];
        const CubeHwConfig hw = ds.decode(ds.space().randomPoint(rng));
        const camodel::CubeMappingSpace space(op);
        const CubeMapping m = space.random(rng);
        SimStats st;
        const Ppa ppa = model.evaluate(op, hw, m, &st);

        // fp16 operands, fp32 accumulators; ping-pong doubles a
        // buffer's footprint, and unfused output stages through L1.
        const std::int64_t l0a = 2 * m.m0 * m.k0 * (m.doubleBufferA ? 2 : 1);
        const std::int64_t l0b = 2 * m.k0 * m.n0 * (m.doubleBufferB ? 2 : 1);
        const std::int64_t l0c = 4 * m.m0 * m.n0;
        const std::int64_t l1 = 2 * (2 * m.m1 * m.k1 + 2 * m.k1 * m.n1) +
                                (m.fuseVector ? 0 : 2 * m.m1 * m.n1);
        const std::int64_t ub = 2 * (2 * m.m0 * m.n1);
        const bool fits = l0a <= hw.l0aBytes && l0b <= hw.l0bBytes &&
                          l0c <= hw.l0cBytes && l1 <= hw.l1Bytes &&
                          ub <= hw.ubBytes;
        ASSERT_EQ(ppa.feasible, fits) << op.name << " " << m.describe();
        if (!fits) {
            ++over;
            continue;
        }
        ++feasible;
        const double roofline_ms =
            static_cast<double>(op.macs()) /
            (static_cast<double>(hw.cubeMacs()) * model.tech().clockGhz *
             1e6);
        EXPECT_GE(ppa.latencyMs, roofline_ms) << op.name;
        if (st.extrapolated)
            continue;
        ++fully_simulated;
        const GemmShape &g = space.shape();
        const double compulsory =
            2.0 * static_cast<double>(g.m * g.k + g.k * g.n + g.m * g.n);
        EXPECT_GE(st.dramBytes, compulsory) << op.name;
    }
    EXPECT_GE(feasible, 100);
    EXPECT_GE(over, 100);
    EXPECT_GE(fully_simulated, 20);
}

/** Per-access SRAM energy follows sqrt(capacity): it never falls as
 *  a buffer grows, including below the 1 KiB clamp. */
TEST(CubeInvariants, SramAccessEnergyNeverFallsWithCapacity)
{
    const CycleAccurateModel model;
    const CubeHwConfig base = CubeHwConfig::expertDefault();
    camodel::PreparedCubeQuery prev{};
    bool first = true;
    for (std::int64_t bytes = 256; bytes <= (std::int64_t{8} << 20);
         bytes += bytes / 2) {
        CubeHwConfig hw = base;
        hw.l0aBytes = hw.l0bBytes = hw.l0cBytes = bytes;
        hw.l1Bytes = hw.ubBytes = bytes;
        const camodel::PreparedCubeQuery q = model.prepare(gemmOp(), hw);
        if (!first) {
            EXPECT_GE(q.pjL0a, prev.pjL0a) << bytes;
            EXPECT_GE(q.pjL0b, prev.pjL0b) << bytes;
            EXPECT_GE(q.pjL0c, prev.pjL0c) << bytes;
            EXPECT_GE(q.pjL1, prev.pjL1) << bytes;
            EXPECT_GE(q.pjUb, prev.pjUb) << bytes;
        }
        prev = q;
        first = false;
    }
    EXPECT_GT(prev.pjL1, model.prepare(gemmOp(), base).pjL1);
}
