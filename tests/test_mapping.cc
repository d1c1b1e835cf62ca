/**
 * @file
 * Unit and property tests for the mapping representation and space.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.hh"
#include "mapping/mapping.hh"
#include "workload/model_zoo.hh"
#include "workload/tensor_op.hh"

using namespace unico::mapping;
using unico::common::Rng;
using unico::workload::TensorOp;

namespace {

TensorOp
convOp()
{
    return TensorOp::conv("c", 64, 32, 28, 28, 3, 3);
}

/** MappingSpace::mutate() as it was before it repaired only the facet
 *  it moved: the same draws, then a full repair(). */
Mapping
mutateWithFullRepair(const MappingSpace &space, const Mapping &m, Rng &rng)
{
    Mapping out = m;
    const auto step = [&](std::int64_t &tile, int d) {
        const auto &ladder = space.tileLadder(d);
        auto it = std::lower_bound(ladder.begin(), ladder.end(), tile);
        std::size_t idx = static_cast<std::size_t>(it - ladder.begin());
        if (rng.bernoulli(0.5) && idx + 1 < ladder.size())
            ++idx;
        else if (idx > 0)
            --idx;
        tile = ladder[idx];
    };
    switch (rng.uniformInt(std::uint64_t{5})) {
      case 0: {
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        step(out.l1Tile[d], d);
        break;
      }
      case 1: {
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        step(out.l2Tile[d], d);
        break;
      }
      case 2:
        if (rng.bernoulli(0.5))
            out.spatialX = rng.pick(space.spatialChoices());
        else
            out.spatialY = rng.pick(space.spatialChoices());
        break;
      case 3: {
        const std::size_t i = rng.uniformInt(std::uint64_t{kNumDims});
        const std::size_t j = rng.uniformInt(std::uint64_t{kNumDims});
        std::swap(out.order[i], out.order[j]);
        break;
      }
      default: {
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        out.l1Tile[d] = rng.pick(space.tileLadder(d));
        out.l2Tile[d] = rng.pick(space.tileLadder(d));
        break;
      }
    }
    space.repair(out);
    return out;
}

bool
sameState(const Rng &a, const Rng &b)
{
    const Rng::State sa = a.saveState();
    const Rng::State sb = b.saveState();
    return std::equal(sa.s, sa.s + 4, sb.s) &&
           sa.hasCachedGaussian == sb.hasCachedGaussian &&
           sa.cachedGaussian == sb.cachedGaussian;
}

} // namespace

TEST(Mapping, DimNames)
{
    EXPECT_STREQ(dimName(DimN), "N");
    EXPECT_STREQ(dimName(DimS), "S");
}

TEST(Mapping, DefaultIsValid)
{
    const MappingSpace space(convOp());
    Mapping m;
    EXPECT_TRUE(space.isValid(m));
}

TEST(MappingSpace, ExtentsMatchOperator)
{
    const MappingSpace space(convOp());
    EXPECT_EQ(space.extent(DimN), 1);
    EXPECT_EQ(space.extent(DimK), 64);
    EXPECT_EQ(space.extent(DimC), 32);
    EXPECT_EQ(space.extent(DimY), 28);
    EXPECT_EQ(space.extent(DimR), 3);
}

TEST(MappingSpace, LaddersEndAtExtent)
{
    const MappingSpace space(convOp());
    for (int d = 0; d < kNumDims; ++d) {
        const auto &ladder = space.tileLadder(d);
        ASSERT_FALSE(ladder.empty());
        EXPECT_EQ(ladder.front(), 1);
        EXPECT_EQ(ladder.back(), space.extent(d));
    }
}

TEST(MappingSpace, RandomMappingsAreValid)
{
    const MappingSpace space(convOp());
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        EXPECT_TRUE(space.isValid(space.random(rng)));
}

TEST(MappingSpace, MutateKeepsValidity)
{
    const MappingSpace space(convOp());
    Rng rng(5);
    Mapping m = space.random(rng);
    for (int i = 0; i < 1000; ++i) {
        m = space.mutate(m, rng);
        ASSERT_TRUE(space.isValid(m));
    }
}

TEST(MappingSpace, CrossoverKeepsValidity)
{
    const MappingSpace space(convOp());
    Rng rng(7);
    for (int i = 0; i < 300; ++i) {
        const Mapping a = space.random(rng);
        const Mapping b = space.random(rng);
        EXPECT_TRUE(space.isValid(space.crossover(a, b, rng)));
    }
}

TEST(MappingSpace, RepairFixesBrokenTiles)
{
    const MappingSpace space(convOp());
    Mapping m;
    m.l1Tile[DimK] = 1000; // beyond extent 64
    m.l2Tile[DimK] = 2;    // smaller than l1
    EXPECT_TRUE(space.repair(m));
    EXPECT_TRUE(space.isValid(m));
    EXPECT_LE(m.l1Tile[DimK], m.l2Tile[DimK]);
    EXPECT_LE(m.l2Tile[DimK], 64);
}

TEST(MappingSpace, RepairFixesSpatialCollision)
{
    const MappingSpace space(convOp());
    Mapping m;
    m.spatialX = DimK;
    m.spatialY = DimK;
    space.repair(m);
    EXPECT_NE(m.spatialX, m.spatialY);
}

TEST(MappingSpace, RepairFixesBrokenPermutation)
{
    const MappingSpace space(convOp());
    Mapping m;
    m.order = {0, 0, 0, 0, 0, 0, 0};
    space.repair(m);
    EXPECT_TRUE(space.isValid(m));
}

TEST(MappingSpace, RepairIdempotentOnValid)
{
    const MappingSpace space(convOp());
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        Mapping m = space.random(rng);
        const Mapping before = m;
        space.repair(m);
        EXPECT_TRUE(m == before);
    }
}

TEST(Mapping, DescribeListsComponents)
{
    Mapping m;
    const std::string desc = m.describe();
    EXPECT_NE(desc.find("l1="), std::string::npos);
    EXPECT_NE(desc.find("spatial="), std::string::npos);
    EXPECT_NE(desc.find("order="), std::string::npos);
}

TEST(Mapping, EqualityComparesStructure)
{
    Mapping a, b;
    EXPECT_TRUE(a == b);
    b.l1Tile[DimX] = 2;
    EXPECT_FALSE(a == b);
}

TEST(MappingSpace, DegenerateGemvOperator)
{
    // GEMV: most dims are 1; the space must still produce two
    // distinct spatial dims.
    const MappingSpace space(TensorOp::gemv("v", 1000, 512));
    Rng rng(13);
    for (int i = 0; i < 200; ++i) {
        const Mapping m = space.random(rng);
        ASSERT_TRUE(space.isValid(m));
        EXPECT_NE(m.spatialX, m.spatialY);
    }
}

/** Property sweep over several operator shapes. */
class MappingOpSweep : public ::testing::TestWithParam<int>
{
  protected:
    TensorOp
    op() const
    {
        switch (GetParam()) {
          case 0: return TensorOp::conv("a", 64, 32, 28, 28, 3, 3);
          case 1: return TensorOp::depthwise("b", 256, 14, 14, 5, 5, 2);
          case 2: return TensorOp::gemm("c", 384, 768, 768);
          case 3: return TensorOp::conv("d", 3, 1, 572, 572, 3, 3);
          default: return TensorOp::gemv("e", 1000, 4096);
        }
    }
};

TEST_P(MappingOpSweep, RandomMutateCrossoverValid)
{
    const MappingSpace space(op());
    Rng rng(100 + GetParam());
    Mapping m = space.random(rng);
    for (int i = 0; i < 200; ++i) {
        const Mapping other = space.random(rng);
        m = space.mutate(space.crossover(m, other, rng), rng);
        ASSERT_TRUE(space.isValid(m));
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MappingOpSweep,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(MappingSpace, MinimalMappingAllOnes)
{
    const MappingSpace space(convOp());
    const Mapping m = space.minimal();
    ASSERT_TRUE(space.isValid(m));
    for (int d = 0; d < kNumDims; ++d) {
        EXPECT_EQ(m.l1Tile[d], 1);
        EXPECT_EQ(m.l2Tile[d], 1);
    }
    EXPECT_NE(m.spatialX, m.spatialY);
}

TEST(MappingSpace, MinimalDeterministic)
{
    const MappingSpace space(convOp());
    EXPECT_TRUE(space.minimal() == space.minimal());
}

TEST(MappingSpace, SingleElementDims)
{
    // An operator where five of seven dims are 1 must still yield a
    // valid space with complete ladders.
    const MappingSpace space(TensorOp::gemv("v", 2, 3));
    const Mapping m = space.minimal();
    EXPECT_TRUE(space.isValid(m));
    EXPECT_EQ(space.tileLadder(DimN).size(), 1u);
    EXPECT_EQ(space.tileLadder(DimK).back(), 2);
}

TEST(MappingSpace, MutateMatchesFullRepair)
{
    // mutate() fixes only the facet it moved. From any repaired
    // mapping that must give exactly the old move-then-repair() result
    // and consume exactly the same draws, on every layer of the zoo.
    std::vector<TensorOp> ops;
    for (const auto &name : unico::workload::modelNames())
        for (const auto &wop : unico::workload::makeNetwork(name).uniqueOps())
            ops.push_back(wop.op);
    ASSERT_FALSE(ops.empty());
    constexpr int kMutations = 100000;
    const int per_op = kMutations / static_cast<int>(ops.size()) + 1;
    Rng seeds(2024);
    int checked = 0;
    for (const TensorOp &op : ops) {
        const MappingSpace space(op);
        Rng rng(seeds.next());
        Mapping m = space.random(rng);
        for (int i = 0; i < per_op; ++i) {
            // Restart from fresh random and crossover mappings too.
            if (i % 50 == 0)
                m = space.crossover(m, space.random(rng), rng);
            Rng ref_rng = rng;
            const Mapping want = mutateWithFullRepair(space, m, ref_rng);
            const Mapping got = space.mutate(m, rng);
            ASSERT_EQ(got, want) << op.name << " from " << m.describe();
            ASSERT_TRUE(sameState(rng, ref_rng)) << op.name;
            m = got;
            ++checked;
        }
    }
    EXPECT_GE(checked, kMutations);
}
