/**
 * @file
 * Exact Gaussian-process regression — the MOBO surrogate model.
 *
 * One GP is trained per co-optimization objective (latency, power,
 * area, sensitivity); inputs are normalized hardware configurations.
 * Targets are standardized internally, observation noise is jittered
 * and hyperparameters are selected by log-marginal-likelihood grid
 * search (robust at the small sample counts of HW search).
 */

#ifndef UNICO_SURROGATE_GP_HH
#define UNICO_SURROGATE_GP_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_index.hh"
#include "linalg/matrix.hh"
#include "surrogate/kernel.hh"

namespace unico::surrogate {

/** Posterior mean/variance at a query point. */
struct Prediction
{
    double mean = 0.0;
    double variance = 1.0;
};

/** Exact GP regressor with internal target standardization. */
class GaussianProcess
{
  public:
    explicit GaussianProcess(KernelParams params = KernelParams{});

    /**
     * Fit the GP to (X, y). When @p max_points is exceeded the most
     * recent observations are kept (subset-of-data approximation),
     * bounding the O(n^3) cost.
     */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &y, std::size_t max_points = 512);

    /**
     * Fit with hyperparameter selection: grid search over
     * lengthscales/noise maximizing log marginal likelihood, then a
     * final fit at the best setting.
     *
     * Candidate fits are independent, so they run on @p threads
     * workers (0 = one per hardware thread, capped at the grid size;
     * 1 = serial). The winner is selected serially in grid order
     * with a strict comparison, so the chosen hyperparameters — and
     * the resulting posterior — are bit-identical for every thread
     * count.
     */
    void fitWithHyperopt(const std::vector<std::vector<double>> &x,
                         const std::vector<double> &y,
                         std::size_t max_points = 512,
                         std::size_t threads = 0);

    /**
     * Refit to new targets @p y over the inputs of the last fit,
     * keeping the hyperparameters and the Cholesky factor: the targets
     * are re-standardized, then alpha and the log marginal likelihood
     * are recomputed in O(n^2). @p y is indexed like the x of that fit
     * (the same subset-of-data window applies), and the result is
     * bit-identical to fit(x, y, max_points) at params().
     */
    void retarget(const std::vector<double> &y);

    /** True once fit() succeeded with at least one sample. */
    bool trained() const { return trained_; }

    /** Number of retained training points. */
    std::size_t size() const { return x_.size(); }

    /** Posterior prediction at @p x (prior if untrained). */
    Prediction predict(const std::vector<double> &x) const;

    /**
     * Index of the candidate with the largest
     * expectedImprovement(predict(x), @p incumbent) among the @p count
     * rows of @p xs (row-major, one row per candidate, each with the
     * training inputs' dimension), the first one on ties; @p count
     * when it is 0 or every EI is NaN. Returns exactly what that
     * serial scan with a strict '>' returns, at a fraction of its
     * cost (DESIGN.md §10). Each candidate's r² row comes from
     * squaredDistances(); its buckets in the fit's KernelBracket bound
     * its posterior mean and variance, hence its EI, without an exp.
     * Candidates are visited by descending bound, and the visit stops
     * at the first bound below the running best. A visited candidate
     * gets predict()'s kernel row and mean, skips its triangular solve
     * when the EI at its nearest-point variance bound cannot reach the
     * running best, and is otherwise solved Cholesky::kSolveBlock at a
     * time. Not const: it fills the term-row cache of
     * squaredDistances().
     */
    std::size_t argmaxExpectedImprovement(const double *xs,
                                          std::size_t count,
                                          double incumbent);

    /**
     * Fill r2[0, size()) with the squared scaled distance from @p x
     * (one candidate row) to every retained input x_i, the r² that
     * kernelValue(params(), x, x_i) sums, bit for bit: so
     * kernelFromSquaredDistance(params(), r2[i]) is that kernel value.
     * Each distinct term ((x_d - u) / l)² over the inputs' distinct
     * coordinates u of dimension d is computed once per distinct
     * candidate coordinate x_d and fit: fit() empties the cache of
     * these term rows, retarget() keeps it. Every r² sums its terms
     * from 0.0 in ascending dimension, as kernelValue() does.
     */
    void squaredDistances(const double *x, double *r2);

    /** Log marginal likelihood of the current fit. */
    double logMarginalLikelihood() const;

    /** Current kernel hyperparameters. */
    const KernelParams &params() const { return params_; }

  private:
    /** Everything a fit at one hyperparameter setting produces. */
    struct FitResult
    {
        std::unique_ptr<linalg::Cholesky> chol;
        double maxGramDiag = 0.0; ///< max_i (L Lᵀ)_ii of the factor
        std::vector<double> alpha;
        double lml = 0.0;
        bool ok = false;
    };

    /** Rebuild the coordinate tables from x_ and empty the term-row
     *  cache. */
    void indexCoordinates();

    /** Standardize the last size() entries of @p y into yStd_. */
    void setTargets(const std::vector<double> &y);

    /** Fit at @p params from the retained (x_, yStd_) data. Pure:
     *  touches no member state, safe to run concurrently. */
    FitResult computeFit(const KernelParams &params) const;

    /** Fill @p fit's alpha and log marginal likelihood from its
     *  factor and yStd_. */
    void solveTargets(FitResult &fit) const;

    /** Adopt a fit as the current posterior. */
    void install(FitResult fit);

    KernelParams params_;
    std::vector<std::vector<double>> x_;
    /** The distinct coordinates of x_, keyed by bit pattern: those of
     *  dimension d are coordValues_[coordStart_[d], coordStart_[d+1]),
     *  and x_[i][d] is coordValues_[coordIndex_[i * dims + d]]. */
    std::vector<double> coordValues_;
    std::vector<std::size_t> coordStart_ = {0};
    std::vector<std::uint32_t> coordIndex_;
    /** Term rows of the candidate coordinates seen since the last
     *  fit(): termSlot_[d] maps a coordinate's bit pattern to the
     *  offset in termRows_ of its row ((x_d - u) / l)² over
     *  coordValues_[coordStart_[d], coordStart_[d+1]). */
    std::vector<common::FlatIndex> termSlot_;
    std::vector<double> termRows_;
    /** One candidate's terms, laid out like coordValues_. */
    std::vector<double> terms_;
    /** Scratch of argmaxExpectedImprovement(), reused across calls:
     *  kSolveBlock rows of size() and per-candidate values. */
    std::vector<double> rows_, priorVar_, absAlpha_;
    std::vector<std::pair<double, std::size_t>> visit_;
    std::vector<double> yStd_;  ///< standardized targets
    double yMean_ = 0.0;
    double yScale_ = 1.0;
    std::vector<double> alpha_; ///< K^{-1} y
    std::unique_ptr<linalg::Cholesky> chol_;
    double maxGramDiag_ = 0.0; ///< FitResult::maxGramDiag of chol_
    KernelBracket bracket_;    ///< built by install() for params_
    bool trained_ = false;
    double lml_ = 0.0;
};

/**
 * Expected improvement for minimization: EI(x) = E[max(best - f, 0)].
 * @param best incumbent (smallest observed value, standardized to the
 *        same scale as @p pred).
 */
double expectedImprovement(const Prediction &pred, double best);

} // namespace unico::surrogate

#endif // UNICO_SURROGATE_GP_HH
