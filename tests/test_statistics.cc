/**
 * @file
 * Unit tests for the statistics helpers that back MSH's AUC
 * criterion, the UUL percentile and the robustness metric.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/statistics.hh"

namespace stats = unico::common;

TEST(Statistics, MeanBasics)
{
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stats::mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(stats::mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Statistics, VarianceAndStddev)
{
    EXPECT_DOUBLE_EQ(stats::variance({5.0}), 0.0);
    EXPECT_DOUBLE_EQ(stats::variance({2.0, 4.0}), 1.0);
    EXPECT_DOUBLE_EQ(stats::stddev({2.0, 4.0}), 1.0);
}

TEST(Statistics, PercentileEndpoints)
{
    const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(stats::percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(stats::percentile(v, 100.0), 40.0);
}

TEST(Statistics, PercentileInterpolates)
{
    const std::vector<double> v = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(stats::percentile(v, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(stats::percentile(v, 95.0), 9.5);
}

TEST(Statistics, PercentileUnsortedInput)
{
    EXPECT_DOUBLE_EQ(stats::percentile({30.0, 10.0, 20.0}, 50.0), 20.0);
}

TEST(Statistics, PercentileSingleSample)
{
    EXPECT_DOUBLE_EQ(stats::percentile({7.0}, 95.0), 7.0);
}

TEST(Statistics, AucFlatCurveIsZero)
{
    EXPECT_DOUBLE_EQ(stats::aucAboveTerminal({5.0, 5.0, 5.0}), 0.0);
}

TEST(Statistics, AucKnownTriangle)
{
    // Curve 2, 1, 0: trapezoids (2+1)/2 + (1+0)/2 = 2.
    EXPECT_DOUBLE_EQ(stats::aucAboveTerminal({2.0, 1.0, 0.0}), 2.0);
}

TEST(Statistics, AucRewardsRecentDeepDescent)
{
    // Fig. 4b: the area above the *terminal* line is large while the
    // curve is still descending. A candidate that plateaued early
    // traps little area; one that is still dropping steeply traps a
    // lot — that is the "second chance" signal MSH promotes.
    const double plateaued =
        stats::aucAboveTerminal({10.0, 1.0, 0.0, 0.0, 0.0});
    const double still_descending =
        stats::aucAboveTerminal({10.0, 9.0, 8.0, 4.0, 0.0});
    EXPECT_GT(still_descending, plateaued);
}

TEST(Statistics, AucRewardsDeeperConvergence)
{
    // Same start, same budget: converging to a much lower terminal
    // traps more area than barely improving.
    const double deep =
        stats::aucAboveTerminal({10.0, 0.0, 0.0, 0.0, 0.0});
    const double shallow =
        stats::aucAboveTerminal({10.0, 9.0, 9.0, 9.0, 9.0});
    EXPECT_GT(deep, shallow);
}

TEST(Statistics, AucShortHistory)
{
    EXPECT_DOUBLE_EQ(stats::aucAboveTerminal({}), 0.0);
    EXPECT_DOUBLE_EQ(stats::aucAboveTerminal({3.0}), 0.0);
}

TEST(Statistics, PearsonPerfectCorrelation)
{
    EXPECT_NEAR(stats::pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
    EXPECT_NEAR(stats::pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(Statistics, PearsonDegenerate)
{
    EXPECT_DOUBLE_EQ(stats::pearson({1, 1, 1}, {1, 2, 3}), 0.0);
    EXPECT_DOUBLE_EQ(stats::pearson({1.0}, {2.0}), 0.0);
}

TEST(Statistics, SpearmanMonotoneNonlinear)
{
    // y = x^3 is monotone: rank correlation 1 even though nonlinear.
    EXPECT_NEAR(stats::spearman({1, 2, 3, 4}, {1, 8, 27, 64}), 1.0,
                1e-12);
}

TEST(Statistics, SpearmanHandlesTies)
{
    const double r = stats::spearman({1, 2, 2, 3}, {1, 2, 2, 3});
    EXPECT_NEAR(r, 1.0, 1e-12);
}

TEST(Statistics, ArgsortAscendingStable)
{
    const auto idx = stats::argsortAscending({3.0, 1.0, 2.0, 1.0});
    const std::vector<std::size_t> expected = {1, 3, 2, 0};
    EXPECT_EQ(idx, expected);
}

TEST(Statistics, ArgsortDescending)
{
    const auto idx = stats::argsortDescending({3.0, 1.0, 2.0});
    const std::vector<std::size_t> expected = {0, 2, 1};
    EXPECT_EQ(idx, expected);
}

TEST(Statistics, L2Distance)
{
    EXPECT_DOUBLE_EQ(stats::l2Distance({1.0, 1.0}, {4.0, 5.0}), 5.0);
}

/** Property: percentile is monotone in p. */
class PercentileMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(PercentileMonotone, NonDecreasingInP)
{
    const std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0, 2.0};
    const double p = GetParam();
    EXPECT_LE(stats::percentile(v, p), stats::percentile(v, p + 5.0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileMonotone,
                         ::testing::Values(0.0, 10.0, 25.0, 50.0, 75.0,
                                           90.0, 95.0));
