/**
 * @file
 * Dense row-major matrix/vector types used by the Gaussian-process
 * surrogate, sized for the small systems that appear in MOBO (hundreds
 * of rows). The hot kernels are interleaved for speed:
 * Cholesky::factorize advances four rows of a column together, and
 * Cholesky::solveLowerMulti / solveMulti solve up to eight right-hand
 * sides at once on two-lane vectors, two rows at a time in the forward
 * sweep. Each keeps the naive loop's floating-point operation order
 * for every output element, so the factor is bit-identical to the
 * entry-at-a-time loop, the multi solves are bit-identical to
 * solveLower() / solve() column by column, and no compiler flag is
 * needed.
 */

#ifndef UNICO_LINALG_MATRIX_HH
#define UNICO_LINALG_MATRIX_HH

#include <cassert>
#include <cstddef>
#include <vector>

namespace unico::linalg {

using Vector = std::vector<double>;

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double &
    operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    double
    operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /** Raw storage (row-major). */
    const std::vector<double> &data() const { return data_; }

    /** Add c to every diagonal entry (jitter). */
    void addDiagonal(double c);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product of two equally sized vectors. */
double dot(const Vector &a, const Vector &b);

/**
 * Solve the ridge normal equations (G + ridge I) x = r for an
 * accumulated Gram matrix G = XᵀX and every right-hand side r = Xᵀy
 * in @p rhs, on one factorization. Only the lower triangle of @p gram
 * is read, so callers may accumulate just that half.
 *
 * This is the refit primitive of the online surrogate cost model: the
 * caller accumulates G and one r per prediction head incrementally
 * (one rank-1 update per observed sample) and periodically asks for
 * fresh weights. The ridge term keeps the system well posed for
 * rank-deficient corpora (duplicated or constant feature columns) and
 * for fewer samples than features — including the single-sample case.
 * Whether the jittered Cholesky succeeds depends on G alone; if it
 * fails, every solution is a zero vector so the caller degrades to
 * predicting the bias alone, deterministically. All right-hand sides
 * share one forward and one backward sweep (Cholesky::solveMulti),
 * and each solution is bit-identical to solving its right-hand side
 * on its own.
 */
std::vector<Vector> solveNormalEquations(const Matrix &gram,
                                         const std::vector<Vector> &rhs,
                                         double ridge);

/**
 * Cholesky factorization of a symmetric positive-definite matrix.
 *
 * Stores the lower-triangular factor L with A = L Lᵀ and solves
 * linear systems by forward/back substitution. Used for GP posterior
 * computation and log-marginal-likelihood evaluation.
 */
class Cholesky
{
  public:
    /**
     * Factorize @p a, reading only its lower triangle. If the matrix
     * is not positive definite, jitter is added to the diagonal in
     * increasing amounts until the factorization succeeds (up to a
     * bound); ok() reports success.
     */
    explicit Cholesky(Matrix a);

    /** True if a factorization was obtained. */
    bool ok() const { return ok_; }

    /** Solve A x = b. */
    Vector solve(const Vector &b) const;

    /** Solve L y = b (forward substitution). */
    Vector solveLower(const Vector &b) const;

    /** Most right-hand sides solveLowerMulti() advances together. */
    static constexpr std::size_t kSolveBlock = 8;

    /**
     * Solve L Y = B for every column of @p b (n rows, any number of
     * columns). Columns are solved up to kSolveBlock at a time with
     * the same k-ascending multiply-then-subtract order as
     * solveLower(), so column c of the result is bit-identical to
     * solveLower() of column c of @p b.
     */
    Matrix solveLowerMulti(const Matrix &b) const;

    /**
     * Solve A X = B for every column of @p b: solveLowerMulti()'s
     * forward sweep, then the backward sweep with Lᵀ on the same
     * lanes, so column c of the result is bit-identical to solve() of
     * column c of @p b.
     */
    Matrix solveMulti(const Matrix &b) const;

    /** Sum of log of diagonal entries of L (0.5 * log det A). */
    double halfLogDet() const;

    /** Access the lower factor. */
    const Matrix &lower() const { return l_; }

  private:
    bool factorize(double jitter);

    Matrix a_;
    Matrix l_;
    bool ok_ = false;
};

} // namespace unico::linalg

#endif // UNICO_LINALG_MATRIX_HH
