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
    Matrix a = gram;
    a.addDiagonal(ridge);
    const Cholesky chol(std::move(a));
    std::vector<Vector> out;
    out.reserve(rhs.size());
    for (const Vector &r : rhs) {
        assert(r.size() == gram.rows());
        out.push_back(chol.ok() ? chol.solve(r) : Vector(r.size(), 0.0));
    }
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
        double diag = a_(j, j) + jitter;
        for (std::size_t k = 0; k < j; ++k)
            diag -= l_(j, k) * l_(j, k);
        if (!(diag > 0.0) || !std::isfinite(diag))
            return false;
        const double ljj = std::sqrt(diag);
        l_(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a_(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l_(i, k) * l_(j, k);
            l_(i, j) = acc / ljj;
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

Matrix
Cholesky::solveLowerMulti(const Matrix &b) const
{
    // GCC vector lanes: IEEE multiply, subtract and divide per lane,
    // exactly the scalar operations solveLower() performs per column.
    typedef double Lanes __attribute__((vector_size(16)));
    constexpr std::size_t kWidth = sizeof(Lanes) / sizeof(double);
    constexpr std::size_t kVecs = kSolveBlock / kWidth;
    static_assert(kSolveBlock % kWidth == 0);

    assert(ok_);
    const std::size_t n = l_.rows();
    const std::size_t m = b.cols();
    assert(b.rows() == n);
    Matrix y(n, m, 0.0);
    const std::vector<double> &l = l_.data();
    // One block of columns, interleaved row by row: panel[i * kVecs + v]
    // holds entries i of columns 2v and 2v + 1. Columns past the last
    // one solve zeros and are dropped.
    std::vector<Lanes> panel(n * kVecs);
    for (std::size_t c0 = 0; c0 < m; c0 += kSolveBlock) {
        const std::size_t width = std::min(kSolveBlock, m - c0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t c = 0; c < kSolveBlock; ++c)
                panel[i * kVecs + c / kWidth][c % kWidth] =
                    c < width ? b(i, c0 + c) : 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            Lanes acc[kVecs];
            for (std::size_t v = 0; v < kVecs; ++v)
                acc[v] = panel[i * kVecs + v];
            const double *row = &l[i * n];
            for (std::size_t k = 0; k < i; ++k) {
                const Lanes lik = {row[k], row[k]};
                const Lanes *yk = &panel[k * kVecs];
                for (std::size_t v = 0; v < kVecs; ++v)
                    acc[v] -= lik * yk[v];
            }
            const Lanes lii = {row[i], row[i]};
            for (std::size_t v = 0; v < kVecs; ++v)
                panel[i * kVecs + v] = acc[v] / lii;
        }
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t c = 0; c < width; ++c)
                y(i, c0 + c) = panel[i * kVecs + c / kWidth][c % kWidth];
    }
    return y;
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
