/**
 * @file
 * Tests for the Gaussian-process surrogate and the EI acquisition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hh"
#include "surrogate/gp.hh"

using namespace unico::surrogate;
using unico::common::Rng;

namespace {

/** Sample a smooth 1-D function on a grid. */
void
makeData(std::vector<std::vector<double>> &x, std::vector<double> &y,
         int n)
{
    for (int i = 0; i < n; ++i) {
        const double xi = static_cast<double>(i) / (n - 1);
        x.push_back({xi});
        y.push_back(std::sin(4.0 * xi) + 0.5 * xi);
    }
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** The predict() + EI scan that argmaxExpectedImprovement replaces. */
std::size_t
serialArgmaxEi(const GaussianProcess &gp,
               const std::vector<std::vector<double>> &xs, double incumbent)
{
    std::size_t best = xs.size();
    double best_ei = -1.0;
    for (std::size_t j = 0; j < xs.size(); ++j) {
        const double ei = expectedImprovement(gp.predict(xs[j]), incumbent);
        if (ei > best_ei) {
            best_ei = ei;
            best = j;
        }
    }
    return best;
}

/** argmaxExpectedImprovement() over the rows of @p xs. */
std::size_t
argmaxEi(GaussianProcess &gp, const std::vector<std::vector<double>> &xs,
         double incumbent)
{
    std::vector<double> rows;
    for (const auto &x : xs)
        rows.insert(rows.end(), x.begin(), x.end());
    return gp.argmaxExpectedImprovement(rows.data(), xs.size(), incumbent);
}

/** A grid point with @p levels values per axis, normalized the way
 *  DesignSpace::normalize() does. */
std::vector<double>
gridPoint(Rng &rng, const std::vector<std::size_t> &levels)
{
    std::vector<double> x;
    for (const std::size_t l : levels)
        x.push_back(l > 1 ? static_cast<double>(rng.uniformInt(l)) /
                                static_cast<double>(l - 1)
                          : 0.5);
    return x;
}

} // namespace

TEST(Kernel, SelfSimilarityEqualsVariance)
{
    KernelParams p;
    p.variance = 2.5;
    EXPECT_NEAR(kernelValue(p, {0.3, 0.7}, {0.3, 0.7}), 2.5, 1e-12);
}

TEST(Kernel, DecaysWithDistance)
{
    KernelParams p;
    const double near = kernelValue(p, {0.0}, {0.1});
    const double far = kernelValue(p, {0.0}, {0.9});
    EXPECT_GT(near, far);
    EXPECT_GT(far, 0.0);
}

TEST(Kernel, MaternFiveHalvesClosedForm)
{
    // k(r) = σ² (1 + √5 r + 5r²/3) exp(-√5 r), r = ‖x - z‖ / l.
    KernelParams p;
    p.lengthscale = 0.4;
    p.variance = 1.7;
    const double r = 0.5 / 0.4; // |(0.1, 0.2) - (0.4, 0.6)| = 0.5
    const double want = 1.7 *
                        (1.0 + std::sqrt(5.0) * r + 5.0 * r * r / 3.0) *
                        std::exp(-std::sqrt(5.0) * r);
    EXPECT_NEAR(kernelValue(p, {0.1, 0.2}, {0.4, 0.6}), want, 1e-12);
}

TEST(Gp, UntrainedPredictsPrior)
{
    GaussianProcess gp;
    const auto pred = gp.predict({0.5});
    EXPECT_FALSE(gp.trained());
    EXPECT_GT(pred.variance, 0.0);
}

TEST(Gp, InterpolatesTrainingData)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    makeData(x, y, 15);
    GaussianProcess gp;
    gp.fit(x, y);
    ASSERT_TRUE(gp.trained());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const auto pred = gp.predict(x[i]);
        EXPECT_NEAR(pred.mean, y[i], 0.05) << "at x=" << x[i][0];
    }
}

TEST(Gp, VarianceSmallAtDataLargeAway)
{
    std::vector<std::vector<double>> x = {{0.0}, {0.1}, {0.2}};
    std::vector<double> y = {1.0, 2.0, 1.5};
    GaussianProcess gp;
    gp.fit(x, y);
    const double var_at = gp.predict({0.1}).variance;
    const double var_far = gp.predict({0.9}).variance;
    EXPECT_LT(var_at, var_far);
}

TEST(Gp, GeneralizesSmoothFunction)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    makeData(x, y, 21);
    GaussianProcess gp;
    gp.fitWithHyperopt(x, y);
    // Predict between training points.
    const double xq = 0.525;
    const double truth = std::sin(4.0 * xq) + 0.5 * xq;
    EXPECT_NEAR(gp.predict({xq}).mean, truth, 0.1);
}

TEST(Gp, HyperoptNeverWorseLml)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    makeData(x, y, 20);
    GaussianProcess plain;
    plain.fit(x, y);
    GaussianProcess tuned;
    tuned.fitWithHyperopt(x, y);
    EXPECT_GE(tuned.logMarginalLikelihood(),
              plain.logMarginalLikelihood() - 1e-9);
}

TEST(Gp, SubsetOfDataCapRespected)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        x.push_back({rng.uniform()});
        y.push_back(rng.gaussian());
    }
    GaussianProcess gp;
    gp.fit(x, y, 32);
    EXPECT_EQ(gp.size(), 32u);
    EXPECT_TRUE(gp.trained());
}

TEST(Gp, ConstantTargetsHandled)
{
    std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
    std::vector<double> y = {3.0, 3.0, 3.0};
    GaussianProcess gp;
    gp.fit(x, y);
    ASSERT_TRUE(gp.trained());
    EXPECT_NEAR(gp.predict({0.3}).mean, 3.0, 0.1);
}

TEST(Gp, EmptyFitStaysUntrained)
{
    GaussianProcess gp;
    gp.fit({}, {});
    EXPECT_FALSE(gp.trained());
}

TEST(Acquisition, EiZeroWhenCertainAndWorse)
{
    Prediction pred;
    pred.mean = 5.0;
    pred.variance = 1e-18;
    EXPECT_NEAR(expectedImprovement(pred, 4.0), 0.0, 1e-9);
}

TEST(Acquisition, EiEqualsGapWhenCertainAndBetter)
{
    Prediction pred;
    pred.mean = 2.0;
    pred.variance = 1e-18;
    EXPECT_NEAR(expectedImprovement(pred, 4.0), 2.0, 1e-6);
}

TEST(Acquisition, EiGrowsWithUncertainty)
{
    Prediction certain{4.0, 0.01};
    Prediction uncertain{4.0, 4.0};
    EXPECT_GT(expectedImprovement(uncertain, 4.0),
              expectedImprovement(certain, 4.0));
}

TEST(Gp, HyperoptBitIdenticalAcrossThreadCounts)
{
    // The hyperparameter grid is evaluated in parallel but the argmin
    // is selected serially in grid order, so the fitted model must be
    // bit-identical for any thread count.
    Rng rng(19);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 40; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        x.push_back({a, b});
        y.push_back(std::sin(5.0 * a) + 0.3 * b + 0.05 * rng.gaussian());
    }
    GaussianProcess serial, threaded;
    serial.fitWithHyperopt(x, y, 512, 1);
    threaded.fitWithHyperopt(x, y, 512, 4);
    EXPECT_EQ(serial.params().lengthscale, threaded.params().lengthscale);
    EXPECT_EQ(serial.params().noise, threaded.params().noise);
    EXPECT_EQ(serial.logMarginalLikelihood(),
              threaded.logMarginalLikelihood());
    for (const double q : {0.05, 0.35, 0.65, 0.95}) {
        const auto ps = serial.predict({q, 1.0 - q});
        const auto pt = threaded.predict({q, 1.0 - q});
        EXPECT_EQ(ps.mean, pt.mean);
        EXPECT_EQ(ps.variance, pt.variance);
    }
}

TEST(Gp, RetargetMatchesFreshFit)
{
    Rng rng(43);
    std::vector<std::vector<double>> x;
    std::vector<double> y1, y2;
    for (int i = 0; i < 60; ++i) {
        x.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        y1.push_back(rng.gaussian());
        y2.push_back(std::sin(4.0 * x.back()[0]) + 0.1 * rng.gaussian());
    }
    // 40 < 60 keeps only the newest points, like the sampler's window.
    for (const std::size_t window : {512u, 40u}) {
        GaussianProcess shared;
        shared.fitWithHyperopt(x, y1, window, 1);
        ASSERT_TRUE(shared.trained());
        for (const auto *y : {&y2, &y1}) {
            shared.retarget(*y);
            GaussianProcess fresh(shared.params());
            fresh.fit(x, *y, window);
            ASSERT_TRUE(shared.trained());
            ASSERT_EQ(shared.size(), fresh.size());
            EXPECT_EQ(bits(shared.logMarginalLikelihood()),
                      bits(fresh.logMarginalLikelihood()));
            for (int q = 0; q < 20; ++q) {
                const std::vector<double> p = {rng.uniform(), rng.uniform(),
                                               rng.uniform()};
                const auto a = shared.predict(p);
                const auto b = fresh.predict(p);
                EXPECT_EQ(bits(a.mean), bits(b.mean));
                EXPECT_EQ(bits(a.variance), bits(b.variance));
            }
        }
    }
}

TEST(Gp, RetargetKeepsFailedFactorUntrained)
{
    // A NaN input poisons the kernel matrix past the jitter ladder, so
    // the factor fails for any targets: retargeting must leave the GP
    // untrained, predicting the new targets' prior like a fresh fit.
    const std::vector<std::vector<double>> x = {
        {0.1}, {0.5}, {std::nan("")}, {0.9}};
    const std::vector<double> y1 = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> y2 = {-1.0, 0.5, 2.0, 7.0};
    GaussianProcess shared;
    shared.fit(x, y1);
    ASSERT_FALSE(shared.trained());
    shared.retarget(y2);
    GaussianProcess fresh(shared.params());
    fresh.fit(x, y2);
    EXPECT_FALSE(shared.trained());
    EXPECT_FALSE(fresh.trained());
    const auto a = shared.predict({0.3});
    const auto b = fresh.predict({0.3});
    EXPECT_EQ(bits(a.mean), bits(b.mean));
    EXPECT_EQ(bits(a.variance), bits(b.variance));
}

TEST(Gp, TableKernelRowsMatchKernelValue)
{
    // Training and query coordinates mix grid values, off-grid values,
    // both signed zeros, NaN and far-away values; inputs repeat, so the
    // tables hold fewer distinct values than points. A NaN input fails
    // the factor, but the rows only read the retained inputs.
    Rng rng(59);
    const auto coordinate = [&] {
        switch (rng.uniformInt(6)) {
          case 0:
            return static_cast<double>(rng.uniformInt(5)) / 4.0;
          case 1:
            return rng.uniform();
          case 2:
            return 0.0;
          case 3:
            return -0.0;
          case 4:
            return std::nan("");
          default:
            return 10.0 * rng.gaussian();
        }
    };
    for (int c = 0; c < 64; ++c) {
        const std::size_t dims = 1 + rng.uniformInt(6);
        KernelParams params;
        params.lengthscale = (c % 4 >= 2 ? 2.0 : 1.0) * rng.uniform() + 0.05;
        params.variance = c % 2 == 0 ? 1.0 : 0.25 + 4.0 * rng.uniform();
        params.noise = c % 3 == 0 ? 1e-2 : 1e-4;
        const std::size_t n = 1 + rng.uniformInt(40);
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0 && rng.uniformInt(4) == 0) {
                x.push_back(x[rng.uniformInt(i)]);
            } else {
                x.emplace_back();
                for (std::size_t d = 0; d < dims; ++d)
                    x.back().push_back(coordinate());
            }
            y.push_back(rng.gaussian());
        }
        GaussianProcess gp(params);
        gp.fit(x, y);
        ASSERT_EQ(gp.size(), n);
        std::vector<double> r2(n);
        for (int q = 0; q < 16; ++q) {
            std::vector<double> query = x[rng.uniformInt(n)];
            if (q % 2 == 0)
                for (double &v : query)
                    v = coordinate();
            gp.squaredDistances(query.data(), r2.data());
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(bits(kernelFromSquaredDistance(gp.params(), r2[i])),
                          bits(kernelValue(gp.params(), query, x[i])))
                    << "case " << c << " query " << q << " input " << i;
        }
    }
}

TEST(Gp, ArgmaxEiMatchesSerialScan)
{
    // Grid-valued inputs (small grids repeat rows), training sizes from
    // 1 to the sampler's 256-point window, pools of 0 to 240,
    // lengthscales from 0.05 to 2.05, signal variances from 0.25 to
    // 4.25, noise from 0 to 1e-2, and untrained GPs. At zero
    // noise a third of the inputs are duplicates, so the Cholesky
    // jitter ladder engages. Pools hold copies of training inputs and
    // NaN candidates. An incumbent far below every mean makes every EI
    // 0, so the first index must win.
    Rng rng(41);
    const std::size_t pools[] = {0, 1, 7, 8, 9, 240};
    const double noises[] = {0.0, 1e-8, 1e-4, 1e-2};
    int cases = 0;
    for (int c = 0; c < 480; ++c) {
        const std::size_t dims = 1 + rng.uniformInt(6);
        std::vector<std::size_t> levels;
        for (std::size_t d = 0; d < dims; ++d)
            levels.push_back(1 + rng.uniformInt(c % 3 == 0 ? 4 : 16));
        const std::size_t n = 1 + rng.uniformInt(c % 4 == 2 ? 256 : 70);
        KernelParams params;
        params.lengthscale = (c % 4 == 1 ? 2.0 : 1.0) * rng.uniform() + 0.05;
        params.variance = c % 2 == 0 ? 1.0 : 0.25 + 4.0 * rng.uniform();
        params.noise = noises[(c / 3) % 4];
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        for (std::size_t i = 0; i < n; ++i) {
            if (params.noise == 0.0 && i > 0 && rng.uniformInt(3) == 0)
                x.push_back(x[rng.uniformInt(i)]);
            else
                x.push_back(gridPoint(rng, levels));
            double v = 0.3 * rng.gaussian();
            for (std::size_t d = 0; d < dims; ++d)
                v += std::sin(3.0 * x.back()[d] + static_cast<double>(d));
            y.push_back(v);
        }
        GaussianProcess gp(params);
        if (c % 10 != 9)
            gp.fit(x, y, c % 7 == 0 ? 32 : 256);

        std::vector<std::vector<double>> xs;
        for (std::size_t j = 0; j < pools[c % 6]; ++j) {
            if (j % 5 == 1) {
                xs.push_back(x[rng.uniformInt(n)]);
            } else {
                xs.push_back(gridPoint(rng, levels));
                if (j % 17 == 3)
                    xs.back()[rng.uniformInt(dims)] = std::nan("");
            }
        }
        double incumbent = *std::min_element(y.begin(), y.end());
        if (c % 8 == 3)
            incumbent -= 1e6;
        ASSERT_EQ(argmaxEi(gp, xs, incumbent),
                  serialArgmaxEi(gp, xs, incumbent))
            << "case " << c;
        ++cases;
    }
    EXPECT_GE(cases, 400);

    // The row-skipping bound at its edges. Noise 1e-8 with
    // near-duplicate inputs makes Σ|α| large; lengthscales from 0.01 to
    // 4 put r² inside the bracket table, past its range and, for the
    // 1e300 coordinates, at +inf, with signal variances from 0.1 to 10;
    // candidates carry ±inf, NaN and ±1e300 coordinates; and a NaN
    // target gives a GP whose α is NaN, where no candidate may be
    // skipped.
    const double scales[] = {0.01, 0.05, 0.3, 1.0, 4.0};
    const double odd[] = {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::nan(""), 1e300, -1e300};
    int nan_alpha = 0;
    for (int c = 0; c < 200; ++c) {
        const std::size_t dims = 1 + rng.uniformInt(4);
        KernelParams params;
        params.lengthscale =
            c % 4 >= 2 ? scales[rng.uniformInt(5)] : scales[c % 5];
        params.variance =
            c % 2 == 0 ? 1.0 : 0.1 * std::pow(100.0, rng.uniform());
        params.noise = c % 3 == 0 ? 1e-4 : 1e-8;
        const std::size_t n = 2 + rng.uniformInt(60);
        std::vector<std::vector<double>> x;
        std::vector<double> y;
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0 && rng.uniformInt(2) == 0) {
                x.push_back(x[rng.uniformInt(i)]);
                for (double &v : x.back())
                    v += 1e-7 * rng.gaussian();
            } else {
                x.emplace_back();
                for (std::size_t d = 0; d < dims; ++d)
                    x.back().push_back(rng.uniform());
            }
            y.push_back(std::sin(5.0 * x.back()[0]) + 0.1 * rng.gaussian());
        }
        double incumbent = *std::min_element(y.begin(), y.end());
        if (c % 8 == 5) {
            y[rng.uniformInt(n)] = std::nan("");
            ++nan_alpha;
        }
        if (c % 7 == 3)
            incumbent -= 1e6;
        GaussianProcess gp(params);
        gp.fit(x, y);

        std::vector<std::vector<double>> xs;
        const std::size_t m = 1 + rng.uniformInt(240);
        for (std::size_t j = 0; j < m; ++j) {
            if (j % 4 == 1) {
                xs.push_back(x[rng.uniformInt(n)]);
                for (double &v : xs.back())
                    v += 1e-9 * rng.gaussian();
            } else {
                xs.emplace_back();
                for (std::size_t d = 0; d < dims; ++d)
                    xs.back().push_back(1.2 * rng.uniform() - 0.1);
            }
            if (j % 13 == 7)
                xs.back()[rng.uniformInt(dims)] = odd[rng.uniformInt(5)];
        }
        ASSERT_EQ(argmaxEi(gp, xs, incumbent),
                  serialArgmaxEi(gp, xs, incumbent))
            << "edge case " << c;
    }
    EXPECT_GE(nan_alpha, 20);
}

TEST(Kernel, BracketBoundsKernelRowSums)
{
    // bound() holds for any weights: rows mixing r² inside the table,
    // on bucket edges and past its range, with weights over twelve
    // orders of magnitude; and rows against the rounding of the sums,
    // where a weight 10²⁰ times larger, on an r² whose kernel
    // underflows to 0, swallows a unit weight of the other sign on the
    // tail's edge. There the three sums round alike and only the
    // rounding term keeps the interval around the exact sum.
    using B = KernelBracket;
    Rng rng(97);
    for (const double variance : {1.0, 2.5, 0.37, 7.0}) {
        KernelParams params;
        params.variance = variance;
        const B bracket(params);
        for (int c = 0; c < 400; ++c) {
            std::vector<double> r2, w;
            if (c % 4 == 0) {
                const double sign = c % 8 == 0 ? 1.0 : -1.0;
                r2 = {B::kRange, 1e6};
                w = {sign, -sign * 1e20};
                if (c % 16 < 8) {
                    std::swap(r2[0], r2[1]);
                    std::swap(w[0], w[1]);
                }
            } else {
                const std::size_t n = 1 + rng.uniformInt(64);
                for (std::size_t i = 0; i < n; ++i) {
                    switch (rng.uniformInt(3)) {
                      case 0:
                        r2.push_back(B::kRange * rng.uniform());
                        break;
                      case 1:
                        r2.push_back(rng.uniformInt(B::kBuckets) *
                                     B::kStep);
                        break;
                      default:
                        r2.push_back(B::kRange + 1e4 * rng.uniform());
                    }
                    w.push_back(rng.gaussian() *
                                std::pow(10.0, 12.0 * rng.uniform() - 6.0));
                }
            }
            std::vector<double> abs_w;
            double abs_sum = 0.0, sum = 0.0, kmax = 0.0;
            for (std::size_t i = 0; i < r2.size(); ++i) {
                const double k = kernelFromSquaredDistance(params, r2[i]);
                sum += k * w[i];
                kmax = std::max(kmax, k);
                abs_w.push_back(std::fabs(w[i]));
                abs_sum += abs_w.back();
            }
            const B::RowBounds b = bracket.bound(
                r2.data(), w.data(), abs_w.data(), abs_sum, r2.size());
            ASSERT_LE(b.sumLo, sum) << "case " << c;
            ASSERT_GE(b.sumHi, sum) << "case " << c;
            ASSERT_LE(b.maxLo, kmax) << "case " << c;
        }
        // No bucket, or a non-finite weight: no bound.
        const double one = 1.0;
        const double inf = std::numeric_limits<double>::infinity();
        for (const double r2 : {B::kTailEnd, inf, std::nan("")}) {
            const B::RowBounds b = bracket.bound(&r2, &one, &one, 1.0, 1);
            EXPECT_TRUE(std::isnan(b.sumLo) && std::isnan(b.sumHi) &&
                        std::isnan(b.maxLo));
        }
        const double r2 = 1.0;
        EXPECT_TRUE(std::isnan(bracket.bound(&r2, &inf, &inf, inf, 1).sumLo));
    }
}

TEST(Kernel, BracketHoldsAtBucketEdgesAndInside)
{
    // Every bucket's bracket holds kernelFromSquaredDistance at both
    // edges, one ulp inside each, and at random r² within; the tail's
    // holds from kRange to just under kTailEnd; and r² past that (or
    // NaN) has no bucket.
    using B = KernelBracket;
    Rng rng(83);
    for (const double variance : {1.0, 0.37, 2.5, 7.0}) {
        KernelParams params;
        params.variance = variance;
        const B bracket(params);
        ASSERT_TRUE(bracket.builtFor(params));
        const auto holds = [&](std::uint32_t t, double r2) {
            const double k = kernelFromSquaredDistance(params, r2);
            return bracket.lower(t) <= k && k <= bracket.upper(t);
        };
        for (std::uint32_t t = 0; t < B::kBuckets; ++t) {
            const double lo = t * B::kStep;
            const double hi = (t + 1) * B::kStep;
            const double inside[] = {
                lo, std::nextafter(lo, hi), std::nextafter(hi, lo),
                lo + rng.uniform() * B::kStep};
            for (const double r2 : inside) {
                ASSERT_EQ(B::bucket(r2), t) << r2;
                ASSERT_TRUE(holds(t, r2)) << "bucket " << t << " r2 " << r2;
            }
            ASSERT_TRUE(holds(t, hi)) << "bucket " << t;
            ASSERT_GE(bracket.lower(t), 0.0);
        }
        const double tail[] = {
            B::kRange, std::nextafter(B::kRange, 1e9), 100.0, 1e6, 1e300,
            std::nextafter(B::kTailEnd, 0.0)};
        for (const double r2 : tail) {
            ASSERT_EQ(B::bucket(r2), B::kBuckets) << r2;
            ASSERT_TRUE(holds(B::kBuckets, r2)) << r2;
        }
        EXPECT_EQ(bracket.lower(B::kBuckets), 0.0);
        for (const double r2 : {B::kTailEnd, 1e305,
                                std::numeric_limits<double>::infinity(),
                                std::nan("")})
            EXPECT_EQ(B::bucket(r2), B::kBuckets + 1) << r2;
    }
}

TEST(Gp, TermRowsFollowTheFit)
{
    // One GP refitted to new inputs (fit, hyperparameter search, a fit
    // to the newest half) and retargeted between argmax calls over the
    // same grid coordinates: the cached term rows must be those of the
    // current inputs and lengthscale, never of an earlier fit.
    Rng rng(31);
    const std::vector<std::size_t> levels = {5, 9, 3};
    GaussianProcess gp;
    std::vector<std::vector<double>> xs;
    for (int j = 0; j < 120; ++j)
        xs.push_back(gridPoint(rng, levels));
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int round = 0; round < 12; ++round) {
        if (round % 4 == 3) {
            for (double &v : y)
                v = -v;
            gp.retarget(y);
        } else {
            x.clear();
            y.clear();
            const std::size_t n = 8 + rng.uniformInt(40);
            for (std::size_t i = 0; i < n; ++i) {
                x.push_back(gridPoint(rng, levels));
                y.push_back(std::cos(4.0 * x.back()[0]) * x.back()[1] +
                            0.1 * rng.gaussian());
            }
            if (round % 4 == 0)
                gp.fit(x, y);
            else if (round % 4 == 1)
                gp.fitWithHyperopt(x, y, 512, 1);
            else
                gp.fit(x, y, n / 2);
        }
        ASSERT_TRUE(gp.trained());
        const double incumbent = *std::min_element(y.begin(), y.end());
        ASSERT_EQ(argmaxEi(gp, xs, incumbent),
                  serialArgmaxEi(gp, xs, incumbent))
            << "round " << round;
        std::vector<double> r2(gp.size());
        const std::size_t first = x.size() - gp.size();
        for (const auto &query : xs) {
            gp.squaredDistances(query.data(), r2.data());
            for (std::size_t i = 0; i < gp.size(); ++i)
                ASSERT_EQ(bits(kernelFromSquaredDistance(gp.params(), r2[i])),
                          bits(kernelValue(gp.params(), query, x[first + i])))
                    << "round " << round;
        }
    }
}
