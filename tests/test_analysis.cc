/**
 * @file
 * Tests for the roofline oracle (tests/roofline.hh) that bounds the
 * cost models' latencies from below.
 */

#include <gtest/gtest.h>

#include "roofline.hh"
#include "workload/model_zoo.hh"

using namespace unico::workload;
using unico::oracle::roofline;
using unico::oracle::rooflineCycles;

TEST(Roofline, ClassifiesByRidgePoint)
{
    Network net("toy");
    // High-reuse conv (compute bound) and a GEMV (memory bound).
    net.add(TensorOp::conv("conv", 128, 128, 56, 56, 3, 3));
    net.add(TensorOp::gemv("fc", 1000, 4096));
    const auto pts = roofline(net, 256.0, 16.0); // ridge = 16 MAC/B
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_FALSE(pts[0].memoryBound);
    EXPECT_TRUE(pts[1].memoryBound);
    EXPECT_DOUBLE_EQ(pts[0].attainableMacsPerCycle, 256.0);
    EXPECT_LT(pts[1].attainableMacsPerCycle, 256.0);
}

TEST(Roofline, MoreBandwidthNeverSlower)
{
    const auto net = makeMobileNet();
    const double slow = rooflineCycles(net, 256.0, 8.0);
    const double fast = rooflineCycles(net, 256.0, 64.0);
    EXPECT_LE(fast, slow);
    EXPECT_GT(fast, 0.0);
}

TEST(Roofline, MorePeakComputeNeverSlower)
{
    const auto net = makeResNet();
    const double small = rooflineCycles(net, 64.0, 32.0);
    const double big = rooflineCycles(net, 1024.0, 32.0);
    EXPECT_LE(big, small);
}

TEST(Roofline, CyclesLowerBoundedByComputeRoof)
{
    const auto net = makeVgg();
    const double peak = 512.0;
    const double cycles = rooflineCycles(net, peak, 1e9);
    // With infinite bandwidth every layer hits the compute roof.
    EXPECT_NEAR(cycles,
                static_cast<double>(net.totalMacs()) / peak,
                cycles * 1e-9);
}
