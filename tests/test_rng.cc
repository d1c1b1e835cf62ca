/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"

using unico::common::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() != b.next())
            ++differing;
    EXPECT_GT(differing, 60);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(std::uint64_t{7}));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntSignedBounds)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.uniformInt(std::int64_t{-5},
                                              std::int64_t{5});
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIntSingleValue)
{
    Rng rng(15);
    EXPECT_EQ(rng.uniformInt(std::uint64_t{1}), 0u);
    EXPECT_EQ(rng.uniformInt(std::int64_t{3}, std::int64_t{3}), 3);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0, sumsq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sumsq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(21);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, PickReturnsElement)
{
    Rng rng(31);
    const std::vector<int> v = {10, 20, 30};
    for (int i = 0; i < 100; ++i) {
        const int x = rng.pick(v);
        EXPECT_TRUE(x == 10 || x == 20 || x == 30);
    }
}

/** Property: uniformInt(n) is unbiased enough across a seed sweep. */
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngSeedSweep, UniformIntRoughlyBalanced)
{
    Rng rng(GetParam());
    std::vector<int> counts(5, 0);
    const int n = 25000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(std::uint64_t{5})];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1ULL, 2ULL, 99ULL, 12345ULL,
                                           0xdeadbeefULL));
