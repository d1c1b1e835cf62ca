/**
 * @file
 * Unit tests for the dense linear algebra behind the GP surrogate.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "linalg/matrix.hh"

using unico::linalg::Cholesky;
using unico::linalg::Matrix;
using unico::linalg::Vector;
using unico::linalg::dot;
using unico::linalg::solveNormalEquations;

namespace {

/** B Bᵀ by the naive loop: a symmetric positive-semidefinite input. */
Matrix
gramOf(const Matrix &b)
{
    Matrix out(b.rows(), b.rows());
    for (std::size_t r = 0; r < b.rows(); ++r)
        for (std::size_t c = 0; c < b.rows(); ++c)
            for (std::size_t k = 0; k < b.cols(); ++k)
                out(r, c) += b(r, k) * b(c, k);
    return out;
}

/** A x by the naive loop. */
Vector
matVec(const Matrix &a, const Vector &x)
{
    Vector out(a.rows(), 0.0);
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            out[r] += a(r, c) * x[c];
    return out;
}

} // namespace

TEST(Matrix, ShapeFillAndRowMajorIndexing)
{
    Matrix a(2, 3, 0.5);
    EXPECT_EQ(a.rows(), 2u);
    EXPECT_EQ(a.cols(), 3u);
    EXPECT_DOUBLE_EQ(a(1, 2), 0.5);
    a(1, 0) = 4.0;
    EXPECT_DOUBLE_EQ(a.data()[3], 4.0);
}

TEST(Matrix, AddDiagonal)
{
    Matrix a(2, 2, 1.0);
    a.addDiagonal(0.5);
    EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
}

TEST(Vector, Dot)
{
    EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
}

TEST(Cholesky, FactorizesKnownSpd)
{
    // A = [[4, 2], [2, 3]], L = [[2, 0], [1, sqrt(2)]].
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    EXPECT_NEAR(chol.lower()(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(chol.lower()(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(chol.lower()(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, SolveRecoversSolution)
{
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    const Vector b = {10.0, 8.0};
    const Vector x = chol.solve(b);
    // Verify A x == b.
    EXPECT_NEAR(4 * x[0] + 2 * x[1], 10.0, 1e-10);
    EXPECT_NEAR(2 * x[0] + 3 * x[1], 8.0, 1e-10);
}

TEST(Cholesky, HalfLogDet)
{
    Matrix a(2, 2);
    a(0, 0) = 4; a(1, 1) = 9; // diagonal, det = 36
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    EXPECT_NEAR(chol.halfLogDet(), 0.5 * std::log(36.0), 1e-12);
}

TEST(Cholesky, JitterRecoversSemiDefinite)
{
    // Rank-deficient Gram matrix: [1 1; 1 1].
    Matrix a(2, 2, 1.0);
    Cholesky chol(a);
    EXPECT_TRUE(chol.ok()); // succeeds thanks to added jitter
}

TEST(Cholesky, RandomSpdSolve)
{
    unico::common::Rng rng(5);
    const std::size_t n = 12;
    // Build SPD matrix A = B Bᵀ + n I.
    Matrix b(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b(r, c) = rng.gaussian();
    Matrix a = gramOf(b);
    a.addDiagonal(static_cast<double>(n));
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());

    Vector rhs(n, 0.0);
    for (auto &v : rhs)
        v = rng.gaussian();
    const Vector x = chol.solve(rhs);
    const Vector back = matVec(a, x);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(back[i], rhs[i], 1e-8);
}

namespace {

/** Accumulate G = XᵀX and r = Xᵀy row by row, like the surrogate does. */
void
accumulate(Matrix &gram, Vector &rhs, const Vector &x, double y)
{
    for (std::size_t i = 0; i < x.size(); ++i) {
        rhs[i] += x[i] * y;
        for (std::size_t j = 0; j < x.size(); ++j)
            gram(i, j) += x[i] * x[j];
    }
}

} // namespace

TEST(NormalEquations, RecoversExactWeightsFromCleanData)
{
    // y = 2 x0 - 3 x1 + 0.5, with a bias column appended.
    unico::common::Rng rng(11);
    Matrix gram(3, 3, 0.0);
    Vector rhs(3, 0.0);
    for (int s = 0; s < 40; ++s) {
        const Vector x = {rng.gaussian(), rng.gaussian(), 1.0};
        accumulate(gram, rhs, x, 2.0 * x[0] - 3.0 * x[1] + 0.5);
    }
    const Vector w = solveNormalEquations(gram, {rhs}, 1e-8)[0];
    ASSERT_EQ(w.size(), 3u);
    EXPECT_NEAR(w[0], 2.0, 1e-5);
    EXPECT_NEAR(w[1], -3.0, 1e-5);
    EXPECT_NEAR(w[2], 0.5, 1e-5);
}

TEST(NormalEquations, RankDeficientDuplicatedColumnStaysFinite)
{
    // x1 duplicates x0 exactly, so XᵀX is singular; the ridge term
    // must keep the solve well posed and split the weight between the
    // two aliased columns instead of blowing up.
    unico::common::Rng rng(3);
    Matrix gram(3, 3, 0.0);
    Vector rhs(3, 0.0);
    for (int s = 0; s < 25; ++s) {
        const double v = rng.gaussian();
        accumulate(gram, rhs, {v, v, 1.0}, 4.0 * v + 1.0);
    }
    const Vector w = solveNormalEquations(gram, {rhs}, 1e-6)[0];
    for (const double wi : w)
        ASSERT_TRUE(std::isfinite(wi));
    // The aliased pair must jointly act like the true coefficient.
    EXPECT_NEAR(w[0] + w[1], 4.0, 1e-3);
    EXPECT_NEAR(w[2], 1.0, 1e-3);
}

TEST(NormalEquations, SingleSampleDoesNotOverfitToInfinity)
{
    // One observation, three features: wildly under-determined. The
    // ridge solution must exist, be finite, and approximately
    // reproduce the one observed target.
    Matrix gram(3, 3, 0.0);
    Vector rhs(3, 0.0);
    const Vector x = {2.0, -1.0, 1.0};
    accumulate(gram, rhs, x, 5.0);
    const Vector w = solveNormalEquations(gram, {rhs}, 1e-6)[0];
    for (const double wi : w)
        ASSERT_TRUE(std::isfinite(wi));
    EXPECT_NEAR(dot(w, x), 5.0, 1e-3);
}

TEST(NormalEquations, ZeroSamplesReturnsZeroWeights)
{
    const Matrix gram(4, 4, 0.0);
    const Vector rhs(4, 0.0);
    const Vector w = solveNormalEquations(gram, {rhs}, 1e-6)[0];
    ASSERT_EQ(w.size(), 4u);
    for (const double wi : w)
        EXPECT_DOUBLE_EQ(wi, 0.0);
}

TEST(NormalEquations, DeterministicAcrossRepeatedSolves)
{
    unico::common::Rng rng(29);
    Matrix gram(5, 5, 0.0);
    Vector rhs(5, 0.0);
    for (int s = 0; s < 12; ++s) {
        Vector x(5, 1.0);
        for (std::size_t i = 0; i + 1 < x.size(); ++i)
            x[i] = rng.gaussian();
        accumulate(gram, rhs, x, rng.gaussian());
    }
    const Vector a = solveNormalEquations(gram, {rhs}, 1e-4)[0];
    const Vector b = solveNormalEquations(gram, {rhs}, 1e-4)[0];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]); // bit-identical, not just close
}

TEST(NormalEquations, FailedFactorizationZeroesEverySolution)
{
    // Negative definite even after the largest jitter: every
    // right-hand side degrades to the zero vector.
    Matrix gram(2, 2, 0.0);
    gram(0, 0) = gram(1, 1) = -1e6;
    const std::vector<Vector> w =
        solveNormalEquations(gram, {{1.0, 2.0}, {3.0, 4.0}}, 0.0);
    ASSERT_EQ(w.size(), 2u);
    for (const Vector &wk : w)
        EXPECT_EQ(wk, Vector(2, 0.0));
}

TEST(NormalEquations, SharedFactorOfLowerTriangleMatchesSeparateSolves)
{
    // Several right-hand sides share one factorization, and only the
    // lower triangle of the Gram matrix is read: each solution must
    // equal the one-at-a-time solve of the full matrix bit for bit.
    unico::common::Rng rng(41);
    Matrix full(6, 6, 0.0);
    std::vector<Vector> rhs(3, Vector(6, 0.0));
    for (int s = 0; s < 9; ++s) {
        Vector x(6, 1.0);
        for (std::size_t i = 0; i + 1 < x.size(); ++i)
            x[i] = rng.gaussian();
        for (std::size_t i = 0; i < x.size(); ++i)
            for (std::size_t j = 0; j < x.size(); ++j)
                full(i, j) += x[i] * x[j];
        for (Vector &r : rhs) {
            const double y = rng.gaussian();
            for (std::size_t i = 0; i < x.size(); ++i)
                r[i] += x[i] * y;
        }
    }
    Matrix lower = full;
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = i + 1; j < 6; ++j)
            lower(i, j) = 0.0;
    const std::vector<Vector> shared = solveNormalEquations(lower, rhs, 1e-6);
    ASSERT_EQ(shared.size(), rhs.size());
    for (std::size_t k = 0; k < rhs.size(); ++k) {
        const Vector alone = solveNormalEquations(full, {rhs[k]}, 1e-6)[0];
        ASSERT_EQ(shared[k].size(), alone.size());
        for (std::size_t i = 0; i < alone.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(shared[k][i]),
                      std::bit_cast<std::uint64_t>(alone[i]))
                << "rhs " << k << " entry " << i;
    }
}

TEST(Cholesky, SolveLowerMultiBitIdenticalToSolveLower)
{
    // Every column of the blocked multi-right-hand-side solve must
    // equal solveLower() of that column bit for bit, for row counts
    // and column counts on both sides of the block width.
    unico::common::Rng rng(31);
    for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 33u, 100u}) {
        Matrix g(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                g(r, c) = rng.gaussian();
        Matrix a = gramOf(g);
        a.addDiagonal(0.1);
        const Cholesky chol(a);
        ASSERT_TRUE(chol.ok());
        for (const std::size_t m : {1u, 3u, 8u, 9u, 17u}) {
            Matrix b(n, m);
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c < m; ++c)
                    b(r, c) = rng.uniform() < 0.1 ? 0.0 : rng.gaussian();
            const Matrix y = chol.solveLowerMulti(b);
            ASSERT_EQ(y.rows(), n);
            ASSERT_EQ(y.cols(), m);
            for (std::size_t c = 0; c < m; ++c) {
                Vector col(n);
                for (std::size_t r = 0; r < n; ++r)
                    col[r] = b(r, c);
                const Vector ref = chol.solveLower(col);
                for (std::size_t r = 0; r < n; ++r)
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(y(r, c)),
                              std::bit_cast<std::uint64_t>(ref[r]))
                        << "n=" << n << " m=" << m << " at (" << r << ","
                        << c << ")";
            }
        }
    }
}

TEST(Cholesky, SolveLowerForwardSubstitution)
{
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    const Vector y = chol.solveLower({2.0, 1.0 + std::sqrt(2.0)});
    // L y = b with L = [[2,0],[1,sqrt 2]] -> y = [1, 1/sqrt2 * sqrt2]=...
    EXPECT_NEAR(chol.lower()(0, 0) * y[0], 2.0, 1e-12);
    EXPECT_NEAR(chol.lower()(1, 0) * y[0] + chol.lower()(1, 1) * y[1],
                1.0 + std::sqrt(2.0), 1e-12);
}

namespace {

/** Cholesky's factorization as the entry-at-a-time loop, with its
 *  jitter ladder; returns the attempts taken (0 when all failed). */
int
naiveCholesky(const Matrix &a, Matrix &l)
{
    const std::size_t n = a.rows();
    double jitter = 0.0;
    for (int attempt = 1; attempt <= 8; ++attempt) {
        l = Matrix(n, n, 0.0);
        bool ok = true;
        for (std::size_t j = 0; j < n && ok; ++j) {
            double diag = a(j, j) + jitter;
            for (std::size_t k = 0; k < j; ++k)
                diag -= l(j, k) * l(j, k);
            if (!(diag > 0.0) || !std::isfinite(diag)) {
                ok = false;
                break;
            }
            const double ljj = std::sqrt(diag);
            l(j, j) = ljj;
            for (std::size_t i = j + 1; i < n; ++i) {
                double acc = a(i, j);
                for (std::size_t k = 0; k < j; ++k)
                    acc -= l(i, k) * l(j, k);
                l(i, j) = acc / ljj;
            }
        }
        if (ok)
            return attempt;
        jitter = (jitter == 0.0) ? 1e-10 : jitter * 100.0;
        if (jitter > 1e2)
            break;
    }
    return 0;
}

void
expectBitEqual(const Matrix &got, const Matrix &want, const char *what,
               std::size_t n)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t r = 0; r < want.rows(); ++r)
        for (std::size_t c = 0; c < want.cols(); ++c)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got(r, c)),
                      std::bit_cast<std::uint64_t>(want(r, c)))
                << what << " n=" << n << " at (" << r << "," << c << ")";
}

} // namespace

TEST(Cholesky, InterleavedFactorMatchesNaive)
{
    // The factor advances four rows of a column together; every entry
    // must keep the bits of the entry-at-a-time loop, for sizes on
    // both sides of the row block and through the jitter ladder.
    unico::common::Rng rng(53);
    for (std::size_t n = 1; n <= 80; ++n) {
        Matrix g(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                g(r, c) = rng.gaussian();
        Matrix a = gramOf(g);
        a.addDiagonal(0.01 * rng.uniform());
        Matrix want;
        ASSERT_EQ(naiveCholesky(a, want), 1) << "n=" << n;
        const Cholesky chol(a);
        ASSERT_TRUE(chol.ok());
        expectBitEqual(chol.lower(), want, "spd", n);
    }
    // Rank 2 and symmetric: not positive definite for n > 2, so the
    // factorization climbs the jitter ladder before it succeeds.
    for (const std::size_t n : {3u, 5u, 8u, 13u, 40u}) {
        Matrix g(n, 2);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < 2; ++c)
                g(r, c) = rng.gaussian();
        const Matrix a = gramOf(g);
        Matrix want;
        const int attempts = naiveCholesky(a, want);
        ASSERT_GT(attempts, 1) << "n=" << n;
        const Cholesky chol(a);
        ASSERT_TRUE(chol.ok());
        expectBitEqual(chol.lower(), want, "jittered", n);
    }
}

TEST(Cholesky, SolveMultiBitIdenticalToSolve)
{
    // Forward and backward sweeps on lanes, the forward one two rows at
    // a time: every column must equal solve() of that column, for odd
    // and even sizes and every block width.
    unico::common::Rng rng(59);
    for (const std::size_t n : {1u, 2u, 3u, 8u, 9u, 51u, 64u}) {
        Matrix g(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                g(r, c) = rng.gaussian();
        Matrix a = gramOf(g);
        a.addDiagonal(0.1);
        const Cholesky chol(a);
        ASSERT_TRUE(chol.ok());
        for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 8u, 11u}) {
            Matrix b(n, m);
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c < m; ++c)
                    b(r, c) = rng.gaussian();
            Matrix want(n, m);
            for (std::size_t c = 0; c < m; ++c) {
                Vector col(n);
                for (std::size_t r = 0; r < n; ++r)
                    col[r] = b(r, c);
                const Vector x = chol.solve(col);
                for (std::size_t r = 0; r < n; ++r)
                    want(r, c) = x[r];
            }
            expectBitEqual(chol.solveMulti(b), want, "solveMulti", n);
        }
    }
}

TEST(NormalEquations, EveryHeadMatchesItsOwnSolve)
{
    // All heads share one forward and one backward sweep; each must
    // equal Cholesky::solve() of its own right-hand side on the same
    // factor, for the screen's feature sizes and any head count.
    unico::common::Rng rng(61);
    for (const std::size_t n : {1u, 29u, 51u}) {
        for (const std::size_t heads : {1u, 4u, 9u}) {
            Matrix gram(n, n, 0.0);
            std::vector<Vector> rhs(heads, Vector(n, 0.0));
            for (int s = 0; s < 40; ++s) {
                Vector x(n);
                for (double &v : x)
                    v = rng.uniform() < 0.2 ? 0.0 : rng.gaussian();
                for (std::size_t i = 0; i < n; ++i)
                    for (std::size_t j = 0; j <= i; ++j)
                        gram(i, j) += x[i] * x[j];
                for (Vector &r : rhs) {
                    const double y = rng.gaussian();
                    for (std::size_t i = 0; i < n; ++i)
                        r[i] += x[i] * y;
                }
            }
            const double ridge = 1e-3;
            const std::vector<Vector> w =
                solveNormalEquations(gram, rhs, ridge);
            Matrix a = gram;
            a.addDiagonal(ridge);
            const Cholesky chol(a);
            ASSERT_TRUE(chol.ok());
            ASSERT_EQ(w.size(), heads);
            for (std::size_t h = 0; h < heads; ++h) {
                const Vector want = chol.solve(rhs[h]);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(w[h][i]),
                              std::bit_cast<std::uint64_t>(want[i]))
                        << "n=" << n << " head " << h << " entry " << i;
            }
        }
    }
}
