/**
 * @file
 * Unit and property tests for the generic discrete design space.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/design_space.hh"
#include "common/rng.hh"

using unico::accel::DesignSpace;
using unico::accel::HwPoint;
using unico::accel::smoothGrid;
using unico::common::Rng;

namespace {

DesignSpace
makeToySpace()
{
    DesignSpace ds;
    ds.addAxis("a", {1.0, 2.0, 4.0});
    ds.addAxis("b", {10.0, 20.0});
    ds.addAxis("c", {0.5});
    return ds;
}

} // namespace

TEST(DesignSpace, CardinalityIsProduct)
{
    EXPECT_DOUBLE_EQ(makeToySpace().cardinality(), 6.0);
}

TEST(DesignSpace, ValueDecodes)
{
    const auto ds = makeToySpace();
    const HwPoint p = {2, 1, 0};
    EXPECT_DOUBLE_EQ(ds.value(p, 0), 4.0);
    EXPECT_DOUBLE_EQ(ds.value(p, 1), 20.0);
    EXPECT_DOUBLE_EQ(ds.value(p, 2), 0.5);
}

TEST(DesignSpace, ContainsChecksBounds)
{
    const auto ds = makeToySpace();
    EXPECT_TRUE(ds.contains({0, 0, 0}));
    EXPECT_FALSE(ds.contains({3, 0, 0})); // axis 0 has 3 values
    EXPECT_FALSE(ds.contains({0, 0}));    // wrong rank
}

TEST(DesignSpace, NormalizeMapsToUnitCube)
{
    const auto ds = makeToySpace();
    const auto lo = ds.normalize({0, 0, 0});
    const auto hi = ds.normalize({2, 1, 0});
    EXPECT_DOUBLE_EQ(lo[0], 0.0);
    EXPECT_DOUBLE_EQ(hi[0], 1.0);
    EXPECT_DOUBLE_EQ(hi[1], 1.0);
    EXPECT_DOUBLE_EQ(lo[2], 0.5); // single-value axis maps to center
}

TEST(DesignSpace, DescribeMentionsAxisNames)
{
    const auto ds = makeToySpace();
    const std::string desc = ds.describe({0, 1, 0});
    EXPECT_NE(desc.find("a=1"), std::string::npos);
    EXPECT_NE(desc.find("b=20"), std::string::npos);
}

TEST(DesignSpace, RandomPointsAreContained)
{
    const auto ds = makeToySpace();
    Rng rng(3);
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(ds.contains(ds.randomPoint(rng)));
}

TEST(DesignSpace, NeighborStaysContainedAndNearby)
{
    const auto ds = makeToySpace();
    Rng rng(5);
    const HwPoint p = {1, 0, 0};
    for (int i = 0; i < 500; ++i) {
        const HwPoint q = ds.neighbor(p, rng, 1);
        EXPECT_TRUE(ds.contains(q));
    }
}

TEST(DesignSpace, CrossoverInheritsFromParents)
{
    const auto ds = makeToySpace();
    Rng rng(7);
    const HwPoint a = {0, 0, 0};
    const HwPoint b = {2, 1, 0};
    for (int i = 0; i < 100; ++i) {
        const HwPoint child = ds.crossover(a, b, rng);
        ASSERT_TRUE(ds.contains(child));
        EXPECT_TRUE(child[0] == 0 || child[0] == 2);
        EXPECT_TRUE(child[1] == 0 || child[1] == 1);
    }
}

TEST(SmoothGrid, ContainsOnlySmoothNumbersInRange)
{
    const auto grid = smoothGrid(1.0, 100.0, 10);
    for (double v : grid) {
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 100.0);
        // Check v == 2^i * 3^j by dividing factors out.
        double x = v;
        while (std::fmod(x, 2.0) == 0.0)
            x /= 2.0;
        while (std::fmod(x, 3.0) == 0.0)
            x /= 3.0;
        EXPECT_DOUBLE_EQ(x, 1.0) << v;
    }
    // 1,2,3,4,6,8,9,12,16,18,24,27,32,36,48,54,64,72,81,96 = 20 values.
    EXPECT_EQ(grid.size(), 20u);
}

TEST(SmoothGrid, SortedAscendingNoDuplicates)
{
    const auto grid = smoothGrid(1.0, 1e6, 10);
    for (std::size_t i = 1; i < grid.size(); ++i)
        EXPECT_LT(grid[i - 1], grid[i]);
}

TEST(SmoothGrid, RespectsLowerBound)
{
    const auto grid = smoothGrid(512.0, 4096.0, 10);
    ASSERT_FALSE(grid.empty());
    EXPECT_GE(grid.front(), 512.0);
    EXPECT_LE(grid.back(), 4096.0);
}

/** Property sweep: neighbor() with varying mutation strength. */
class NeighborSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(NeighborSweep, AlwaysValid)
{
    DesignSpace ds;
    ds.addAxis("x", {0, 1, 2, 3, 4, 5, 6, 7});
    ds.addAxis("y", {0, 1, 2});
    Rng rng(GetParam() * 97 + 1);
    HwPoint p = ds.randomPoint(rng);
    for (int i = 0; i < 300; ++i) {
        p = ds.neighbor(p, rng, GetParam());
        ASSERT_TRUE(ds.contains(p));
    }
}

INSTANTIATE_TEST_SUITE_P(Strengths, NeighborSweep,
                         ::testing::Values(1u, 2u, 3u, 5u));
