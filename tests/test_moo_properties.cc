/**
 * @file
 * Property tests for the multi-objective primitives: archive
 * invariants under random insertion streams, consistency between the
 * archive and non-dominated sorting, and hypervolume coherence.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "moo/hypervolume.hh"
#include "moo/pareto.hh"

using namespace unico::moo;
using unico::common::Rng;

namespace {

std::vector<Objectives>
randomPoints(Rng &rng, std::size_t n, std::size_t dims)
{
    std::vector<Objectives> pts;
    for (std::size_t i = 0; i < n; ++i) {
        Objectives p(dims, 0.0);
        for (auto &v : p)
            v = rng.uniform();
        pts.push_back(std::move(p));
    }
    return pts;
}

} // namespace

/** Sweep over dimensions and stream lengths. */
class ArchiveProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(ArchiveProperty, EntriesMutuallyNonDominated)
{
    const auto [dims, n] = GetParam();
    Rng rng(dims * 1000 + n);
    ParetoFront front;
    const auto pts = randomPoints(rng, n, dims);
    for (std::size_t i = 0; i < pts.size(); ++i)
        front.insert(pts[i], i);
    const auto &entries = front.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        for (std::size_t j = 0; j < entries.size(); ++j) {
            if (i == j)
                continue;
            ASSERT_FALSE(dominates(entries[i].objectives,
                                   entries[j].objectives));
        }
    }
}

TEST_P(ArchiveProperty, ArchiveEqualsRankZeroFront)
{
    const auto [dims, n] = GetParam();
    Rng rng(dims * 77 + n);
    ParetoFront front;
    const auto pts = randomPoints(rng, n, dims);
    for (std::size_t i = 0; i < pts.size(); ++i)
        front.insert(pts[i], i);

    const auto fronts = nonDominatedSort(pts);
    ASSERT_FALSE(fronts.empty());
    // Same size and same objective multiset as the rank-0 front
    // (random uniform points are distinct with probability 1).
    EXPECT_EQ(front.size(), fronts[0].size());
    for (std::size_t idx : fronts[0]) {
        bool found = false;
        for (const auto &e : front.entries())
            found |= e.objectives == pts[idx];
        EXPECT_TRUE(found);
    }
}

TEST_P(ArchiveProperty, InsertionOrderIrrelevant)
{
    const auto [dims, n] = GetParam();
    Rng rng(dims * 31 + n);
    auto pts = randomPoints(rng, n, dims);
    ParetoFront forward, backward;
    for (std::size_t i = 0; i < pts.size(); ++i)
        forward.insert(pts[i], i);
    for (std::size_t i = pts.size(); i-- > 0;)
        backward.insert(pts[i], i);
    EXPECT_EQ(forward.size(), backward.size());
    const double hv_f = hypervolume(forward.points(),
                                    Objectives(dims, 1.1));
    const double hv_b = hypervolume(backward.points(),
                                    Objectives(dims, 1.1));
    EXPECT_NEAR(hv_f, hv_b, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, ArchiveProperty,
    ::testing::Values(std::pair<std::size_t, std::size_t>{2, 30},
                      std::pair<std::size_t, std::size_t>{3, 50},
                      std::pair<std::size_t, std::size_t>{3, 120},
                      std::pair<std::size_t, std::size_t>{4, 60}));

TEST(MooProperty, HypervolumeMonotoneUnderArchiveGrowth)
{
    Rng rng(9);
    ParetoFront front;
    const Objectives ref(3, 1.1);
    double prev_hv = 0.0;
    for (int i = 0; i < 200; ++i) {
        Objectives p = {rng.uniform(), rng.uniform(), rng.uniform()};
        front.insert(p, static_cast<std::uint64_t>(i));
        if (i % 20 == 19) {
            const double hv = hypervolume(front.points(), ref);
            ASSERT_GE(hv, prev_hv - 1e-12);
            prev_hv = hv;
        }
    }
    EXPECT_GT(prev_hv, 0.0);
}

TEST(MooProperty, CrowdingPermutationInvariant)
{
    Rng rng(11);
    const auto pts = randomPoints(rng, 15, 2);
    std::vector<std::size_t> front(pts.size());
    for (std::size_t i = 0; i < front.size(); ++i)
        front[i] = i;
    const auto base = crowdingDistance(pts, front);
    // Reverse the front ordering: distances must follow the indices.
    std::vector<std::size_t> reversed(front.rbegin(), front.rend());
    const auto rev = crowdingDistance(pts, reversed);
    for (std::size_t i = 0; i < front.size(); ++i)
        EXPECT_DOUBLE_EQ(base[i], rev[front.size() - 1 - i]);
}
