#include "linalg/matrix.hh"

#include <algorithm>
#include <cmath>
#include <vector>

namespace unico::linalg {

void
Matrix::addDiagonal(double c)
{
    const std::size_t n = std::min(rows_, cols_);
    for (std::size_t i = 0; i < n; ++i)
        data_[i * cols_ + i] += c;
}

double
dot(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

std::vector<Vector>
solveNormalEquations(const Matrix &gram, const std::vector<Vector> &rhs,
                     double ridge)
{
    assert(gram.rows() == gram.cols());
    assert(ridge >= 0.0);
    const std::size_t n = gram.rows();
    Matrix a = gram;
    a.addDiagonal(ridge);
    const Cholesky chol(std::move(a));
    std::vector<Vector> out(rhs.size(), Vector(n, 0.0));
    if (!chol.ok())
        return out;
    Matrix b(n, rhs.size());
    for (std::size_t c = 0; c < rhs.size(); ++c) {
        assert(rhs[c].size() == n);
        for (std::size_t i = 0; i < n; ++i)
            b(i, c) = rhs[c][i];
    }
    const Matrix x = chol.solveMulti(b);
    for (std::size_t c = 0; c < rhs.size(); ++c)
        for (std::size_t i = 0; i < n; ++i)
            out[c][i] = x(i, c);
    return out;
}

Cholesky::Cholesky(Matrix a) : a_(std::move(a))
{
    assert(a_.rows() == a_.cols());
    double jitter = 0.0;
    for (int attempt = 0; attempt < 8; ++attempt) {
        if (factorize(jitter)) {
            ok_ = true;
            return;
        }
        jitter = (jitter == 0.0) ? 1e-10 : jitter * 100.0;
        if (jitter > 1e2)
            break;
    }
}

bool
Cholesky::factorize(double jitter)
{
    const std::size_t n = a_.rows();
    l_ = Matrix(n, n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        const double *lj = &l_(j, 0);
        double diag = a_(j, j) + jitter;
        for (std::size_t k = 0; k < j; ++k)
            diag -= lj[k] * lj[k];
        if (!(diag > 0.0) || !std::isfinite(diag))
            return false;
        const double ljj = std::sqrt(diag);
        l_(j, j) = ljj;
        // Entry (i, j) is a k-ascending multiply-then-subtract chain
        // over rows i and j. Four rows advance their chains together,
        // so the subtractions overlap instead of each waiting on the
        // last, and every chain keeps its order.
        std::size_t i = j + 1;
        for (; i + 4 <= n; i += 4) {
            double *r0 = &l_(i, 0);
            double *r1 = r0 + n;
            double *r2 = r1 + n;
            double *r3 = r2 + n;
            double acc0 = a_(i, j);
            double acc1 = a_(i + 1, j);
            double acc2 = a_(i + 2, j);
            double acc3 = a_(i + 3, j);
            for (std::size_t k = 0; k < j; ++k) {
                const double ljk = lj[k];
                acc0 -= r0[k] * ljk;
                acc1 -= r1[k] * ljk;
                acc2 -= r2[k] * ljk;
                acc3 -= r3[k] * ljk;
            }
            r0[j] = acc0 / ljj;
            r1[j] = acc1 / ljj;
            r2[j] = acc2 / ljj;
            r3[j] = acc3 / ljj;
        }
        for (; i < n; ++i) {
            double *ri = &l_(i, 0);
            double acc = a_(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= ri[k] * lj[k];
            ri[j] = acc / ljj;
        }
    }
    return true;
}

Vector
Cholesky::solveLower(const Vector &b) const
{
    assert(ok_);
    const std::size_t n = l_.rows();
    assert(b.size() == n);
    Vector y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= l_(i, k) * y[k];
        y[i] = acc / l_(i, i);
    }
    return y;
}

namespace {

/** Two doubles on GCC vector lanes: IEEE multiply, subtract and
 *  divide per lane, exactly the scalar operations. */
typedef double Lanes __attribute__((vector_size(16)));
constexpr std::size_t kWidth = sizeof(Lanes) / sizeof(double);

/**
 * Substitution on one block of 2·kVecs right-hand sides, interleaved
 * row by row: panel[i * kVecs + v] holds entries i of columns 2v and
 * 2v + 1. Forward (L y = b) always, then backward (Lᵀ x = y) when
 * @p backward is set, with the per-column operations of solveLower()
 * and solve(). The forward sweep advances rows i and i + 1 together:
 * both chains take y_0 .. y_{i-1} in order, then row i + 1 takes the
 * y_i that row i just produced. The backward sweep cannot pair rows:
 * each row's chain starts at the entry the row below it produced.
 */
template <std::size_t kVecs>
void
substituteBlock(const double *l, std::size_t n, Lanes *panel,
                bool backward)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const double *r0 = l + i * n;
        const double *r1 = r0 + n;
        Lanes a0[kVecs], a1[kVecs];
        for (std::size_t v = 0; v < kVecs; ++v) {
            a0[v] = panel[i * kVecs + v];
            a1[v] = panel[(i + 1) * kVecs + v];
        }
        for (std::size_t k = 0; k < i; ++k) {
            const Lanes l0 = {r0[k], r0[k]};
            const Lanes l1 = {r1[k], r1[k]};
            const Lanes *yk = &panel[k * kVecs];
            for (std::size_t v = 0; v < kVecs; ++v) {
                a0[v] -= l0 * yk[v];
                a1[v] -= l1 * yk[v];
            }
        }
        const Lanes d0 = {r0[i], r0[i]};
        const Lanes l1i = {r1[i], r1[i]};
        const Lanes d1 = {r1[i + 1], r1[i + 1]};
        for (std::size_t v = 0; v < kVecs; ++v) {
            const Lanes yi = a0[v] / d0;
            panel[i * kVecs + v] = yi;
            a1[v] -= l1i * yi;
            panel[(i + 1) * kVecs + v] = a1[v] / d1;
        }
    }
    if (i < n) {
        const double *row = l + i * n;
        Lanes acc[kVecs];
        for (std::size_t v = 0; v < kVecs; ++v)
            acc[v] = panel[i * kVecs + v];
        for (std::size_t k = 0; k < i; ++k) {
            const Lanes lik = {row[k], row[k]};
            for (std::size_t v = 0; v < kVecs; ++v)
                acc[v] -= lik * panel[k * kVecs + v];
        }
        const Lanes lii = {row[i], row[i]};
        for (std::size_t v = 0; v < kVecs; ++v)
            panel[i * kVecs + v] = acc[v] / lii;
    }
    if (!backward)
        return;
    for (std::size_t ii = n; ii-- > 0;) {
        Lanes acc[kVecs];
        for (std::size_t v = 0; v < kVecs; ++v)
            acc[v] = panel[ii * kVecs + v];
        for (std::size_t k = ii + 1; k < n; ++k) {
            const Lanes lki = {l[k * n + ii], l[k * n + ii]};
            for (std::size_t v = 0; v < kVecs; ++v)
                acc[v] -= lki * panel[k * kVecs + v];
        }
        const Lanes lii = {l[ii * n + ii], l[ii * n + ii]};
        for (std::size_t v = 0; v < kVecs; ++v)
            panel[ii * kVecs + v] = acc[v] / lii;
    }
}

/** substituteBlock() over the columns of @p b, 2·kVecs at a time;
 *  columns past the last one solve zeros and are dropped. */
template <std::size_t kVecs>
Matrix
substituteColumns(const Matrix &lower, const Matrix &b, bool backward)
{
    constexpr std::size_t kBlock = kVecs * kWidth;
    const std::size_t n = lower.rows();
    const std::size_t m = b.cols();
    assert(b.rows() == n);
    Matrix y(n, m, 0.0);
    std::vector<Lanes> panel(n * kVecs);
    for (std::size_t c0 = 0; c0 < m; c0 += kBlock) {
        const std::size_t width = std::min(kBlock, m - c0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t c = 0; c < kBlock; ++c)
                panel[i * kVecs + c / kWidth][c % kWidth] =
                    c < width ? b(i, c0 + c) : 0.0;
        substituteBlock<kVecs>(lower.data().data(), n, panel.data(),
                               backward);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t c = 0; c < width; ++c)
                y(i, c0 + c) = panel[i * kVecs + c / kWidth][c % kWidth];
    }
    return y;
}

/** The narrowest block that holds @p b's columns, up to kSolveBlock. */
Matrix
substitute(const Matrix &lower, const Matrix &b, bool backward)
{
    static_assert(Cholesky::kSolveBlock == 4 * kWidth);
    if (b.cols() <= kWidth)
        return substituteColumns<1>(lower, b, backward);
    if (b.cols() <= 2 * kWidth)
        return substituteColumns<2>(lower, b, backward);
    return substituteColumns<4>(lower, b, backward);
}

} // namespace

Matrix
Cholesky::solveLowerMulti(const Matrix &b) const
{
    assert(ok_);
    return substitute(l_, b, false);
}

Matrix
Cholesky::solveMulti(const Matrix &b) const
{
    assert(ok_);
    return substitute(l_, b, true);
}

Vector
Cholesky::solve(const Vector &b) const
{
    assert(ok_);
    const std::size_t n = l_.rows();
    Vector y = solveLower(b);
    // Back substitution with Lᵀ.
    Vector x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            acc -= l_(k, ii) * x[k];
        x[ii] = acc / l_(ii, ii);
    }
    return x;
}

double
Cholesky::halfLogDet() const
{
    assert(ok_);
    double acc = 0.0;
    for (std::size_t i = 0; i < l_.rows(); ++i)
        acc += std::log(l_(i, i));
    return acc;
}

} // namespace unico::linalg
