/**
 * @file
 * Unit and property tests for the mapping representation and space.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mapping/mapping.hh"
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
