#include "surrogate/gp.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "common/statistics.hh"
#include "common/thread_pool.hh"

namespace unico::surrogate {

namespace {

/** Worker count for a batch of independent candidate fits. */
std::size_t
resolveThreads(std::size_t threads, std::size_t jobs)
{
    if (threads == 0) {
        const unsigned hc = std::thread::hardware_concurrency();
        threads = hc > 0 ? hc : 1;
    }
    return std::min(threads, jobs);
}

/**
 * The factor c of the nearest-point bound: for a kernel row k over n
 * inputs of @p dims dimensions, the explained variance ‖L⁻¹k‖² that
 * predict() computes is at least c · maxᵢ kᵢ². That is
 * (1 − δ) / maxᵢ (L Lᵀ)ᵢᵢ when the rounding of the solve and of the
 * sum of squares provably stays under δ / 10, and 0 (no bound)
 * otherwise. DESIGN.md §10 has the proof.
 */
double
nearestPointShrink(std::size_t n, std::size_t dims, double noise,
                   double max_gram_diag)
{
    constexpr double kDelta = 1e-6;
    const double u = std::numeric_limits<double>::epsilon() / 2.0;
    const double nd = static_cast<double>(n);
    // Rounding in the kernel matrix and its factor can take at most
    // half this much off λ_min(L Lᵀ) ≥ σ_n².
    const double lost = 2.0 * nd * (nd + static_cast<double>(dims) + 16.0) *
                        u * max_gram_diag;
    if (!(noise > 2.0 * lost && max_gram_diag > 0.0))
        return 0.0;
    const double kappa = std::sqrt(nd * max_gram_diag / (noise - lost));
    const double gamma = nd * u / (1.0 - nd * u);
    return gamma * (1.0 + 2.0 * kappa) <= kDelta / 10.0
               ? (1.0 - kDelta) / max_gram_diag
               : 0.0;
}

/**
 * A bound on the EI that predict() computes for a candidate whose
 * computed mean lies in [@p mean_lo, @p mean_hi] and whose computed
 * variance is at most @p variance: EI falls as the mean rises and
 * grows with the variance, so this is the EI at the lowest mean and
 * that variance, plus a slack for the EI formula's rounding
 * (DESIGN.md §10). NaN when any input is.
 */
double
eiCutoff(double mean_lo, double mean_hi, double variance, double incumbent)
{
    const double sigma = std::sqrt(std::max(variance, 1e-18));
    return expectedImprovement(Prediction{mean_lo, variance}, incumbent) +
           1e-9 * (std::max(std::fabs(incumbent - mean_lo),
                            std::fabs(incumbent - mean_hi)) +
                   sigma);
}

/**
 * r2[i] = Σ_d terms[index[i·dims + d]] for i < n, summed from 0.0 in
 * ascending d. D > 0 fixes dims = D at compile time, which unrolls
 * the dimension loop: about twice as fast as the runtime loop on the
 * spatial backend's six axes.
 */
template <std::size_t D>
void
sumTerms(const double *terms, const std::uint32_t *index, std::size_t n,
         std::size_t dims, double *r2)
{
    const std::size_t dd = D > 0 ? D : dims;
    for (std::size_t i = 0; i < n; ++i, index += dd) {
        double sum = 0.0;
        for (std::size_t d = 0; d < dd; ++d)
            sum += terms[index[d]];
        r2[i] = sum;
    }
}

template <std::size_t... D>
constexpr auto
sumTermsTable(std::index_sequence<D...>)
{
    return std::array{&sumTerms<D>...};
}

/** sumTerms<dims> for dims <= 16, else the runtime loop. */
constexpr auto kSumTerms = sumTermsTable(std::make_index_sequence<17>{});

} // namespace

GaussianProcess::GaussianProcess(KernelParams params) : params_(params)
{
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &x,
                     const std::vector<double> &y, std::size_t max_points)
{
    assert(x.size() == y.size());
    trained_ = false;
    if (x.empty())
        return;

    const std::size_t n = x.size();
    const std::size_t start = n > max_points ? n - max_points : 0;
    x_.assign(x.begin() + static_cast<std::ptrdiff_t>(start), x.end());
    indexCoordinates();
    setTargets(y);
    install(computeFit(params_));
}

void
GaussianProcess::indexCoordinates()
{
    const std::size_t n = x_.size();
    const std::size_t dims = n > 0 ? x_[0].size() : 0;
    coordValues_.clear();
    coordStart_.assign(1, 0);
    coordIndex_.assign(n * dims, 0);
    common::FlatIndex slot;
    for (std::size_t d = 0; d < dims; ++d) {
        slot.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const auto [index, fresh] = slot.emplace(
                std::bit_cast<std::uint64_t>(x_[i][d]),
                static_cast<std::uint32_t>(coordValues_.size()));
            if (fresh)
                coordValues_.push_back(x_[i][d]);
            coordIndex_[i * dims + d] = index;
        }
        coordStart_.push_back(coordValues_.size());
    }
    termSlot_.resize(dims);
    for (common::FlatIndex &s : termSlot_)
        s.clear();
    termRows_.clear();
}

void
GaussianProcess::retarget(const std::vector<double> &y)
{
    setTargets(y);
    // The factor depends only on the inputs and the kernel, so it is
    // the one a fresh fit would build; only alpha and the LML change.
    FitResult fit;
    fit.chol = std::move(chol_);
    fit.maxGramDiag = maxGramDiag_;
    if (fit.chol && fit.chol->ok())
        solveTargets(fit);
    install(std::move(fit));
}

void
GaussianProcess::setTargets(const std::vector<double> &y)
{
    assert(y.size() >= x_.size());
    const std::vector<double> kept(
        y.end() - static_cast<std::ptrdiff_t>(x_.size()), y.end());
    yMean_ = common::mean(kept);
    yScale_ = common::stddev(kept);
    if (yScale_ <= 1e-12)
        yScale_ = 1.0;
    yStd_.resize(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i)
        yStd_[i] = (kept[i] - yMean_) / yScale_;
}

GaussianProcess::FitResult
GaussianProcess::computeFit(const KernelParams &params) const
{
    FitResult out;
    const std::size_t n = x_.size();
    linalg::Matrix k(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            const double v = kernelValue(params, x_[i], x_[j]);
            k(i, j) = v;
            k(j, i) = v;
        }
        k(i, i) += params.noise;
    }
    out.chol = std::make_unique<linalg::Cholesky>(std::move(k));
    if (!out.chol->ok())
        return out;
    const linalg::Matrix &l = out.chol->lower();
    for (std::size_t i = 0; i < n; ++i) {
        double diag = 0.0;
        for (std::size_t c = 0; c <= i; ++c)
            diag += l(i, c) * l(i, c);
        out.maxGramDiag = std::max(out.maxGramDiag, diag);
    }
    solveTargets(out);
    return out;
}

void
GaussianProcess::solveTargets(FitResult &fit) const
{
    const std::size_t n = x_.size();
    fit.alpha = fit.chol->solve(yStd_);
    // log p(y) = -0.5 yᵀ α - Σ log L_ii - n/2 log 2π
    double fit_term = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        fit_term += yStd_[i] * fit.alpha[i];
    fit.lml = -0.5 * fit_term - fit.chol->halfLogDet() -
              0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);
    fit.ok = true;
}

void
GaussianProcess::install(FitResult fit)
{
    chol_ = std::move(fit.chol);
    maxGramDiag_ = fit.maxGramDiag;
    alpha_ = std::move(fit.alpha);
    lml_ = fit.lml;
    trained_ = fit.ok;
    if (trained_ && !bracket_.builtFor(params_))
        bracket_ = KernelBracket(params_);
}

void
GaussianProcess::fitWithHyperopt(const std::vector<std::vector<double>> &x,
                                 const std::vector<double> &y,
                                 std::size_t max_points,
                                 std::size_t threads)
{
    fit(x, y, max_points);
    if (!trained_ || x_.size() < 4)
        return;

    static const double lengthscales[] = {0.1, 0.2, 0.35, 0.6, 1.0};
    static const double noises[] = {1e-4, 1e-2};
    std::vector<KernelParams> grid;
    for (double l : lengthscales) {
        for (double nz : noises) {
            KernelParams p = params_;
            p.lengthscale = l;
            p.noise = nz;
            grid.push_back(p);
        }
    }
    // Candidate fits are independent; compute them concurrently and
    // then select the winner serially in grid order with a strict
    // comparison — bit-identical to the sequential loop for any
    // thread count.
    std::vector<FitResult> fits(grid.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        jobs.push_back([this, &grid, &fits, i] {
            fits[i] = computeFit(grid[i]);
        });
    common::runParallel(jobs, resolveThreads(threads, jobs.size()));

    double best_lml = lml_;
    std::size_t best_i = grid.size();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (fits[i].ok && fits[i].lml > best_lml) {
            best_lml = fits[i].lml;
            best_i = i;
        }
    }
    // When nothing beats the initial fit, the current posterior is
    // already that fit — no refit needed.
    if (best_i < grid.size()) {
        params_ = grid[best_i];
        install(std::move(fits[best_i]));
    }
}

Prediction
GaussianProcess::predict(const std::vector<double> &x) const
{
    Prediction out;
    if (!trained_) {
        out.mean = yMean_;
        out.variance = params_.variance * yScale_ * yScale_;
        if (out.variance <= 0.0)
            out.variance = 1.0;
        return out;
    }
    const std::size_t n = x_.size();
    std::vector<double> kstar(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        kstar[i] = kernelValue(params_, x, x_[i]);

    double mean_std = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        mean_std += kstar[i] * alpha_[i];

    const std::vector<double> v = chol_->solveLower(kstar);
    double explained = 0.0;
    for (double vi : v)
        explained += vi * vi;
    const double var_std = std::max(
        kernelValue(params_, x, x) - explained, 1e-12);

    out.mean = mean_std * yScale_ + yMean_;
    out.variance = var_std * yScale_ * yScale_;
    return out;
}

std::size_t
GaussianProcess::argmaxExpectedImprovement(const double *xs,
                                           std::size_t count,
                                           double incumbent)
{
    const std::size_t m = count;
    if (!trained_) {
        // predict() gives every candidate the prior, so every EI is
        // the same: the first candidate wins unless that EI is NaN.
        const double ei = expectedImprovement(predict({}), incumbent);
        return m > 0 && ei > -1.0 ? 0 : m;
    }

    // Pass 1, no exp: each candidate's r² row and a bound on its EI.
    // The row's buckets bound its posterior mean and, through the
    // nearest-point bound, its variance (DESIGN.md §10).
    const std::size_t n = x_.size();
    const std::size_t dims = coordStart_.size() - 1;
    const double shrink =
        nearestPointShrink(n, dims, params_.noise, maxGramDiag_);
    const double scale2 = yScale_ * yScale_;
    absAlpha_.resize(n);
    double sum_abs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        absAlpha_[i] = std::fabs(alpha_[i]);
        sum_abs += absAlpha_[i];
    }
    constexpr std::size_t kBlock = linalg::Cholesky::kSolveBlock;
    rows_.resize(kBlock * n);
    priorVar_.resize(m);
    visit_.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
        const double *x = xs + j * dims;
        double *row = rows_.data();
        squaredDistances(x, row);
        priorVar_[j] = kernelFromSquaredDistance(
            params_, squaredScaledDistance(params_, x, x, dims));
        const KernelBracket::RowBounds b =
            bracket_.bound(row, alpha_.data(), absAlpha_.data(), sum_abs, n);
        const double bound = eiCutoff(
            b.sumLo * yScale_ + yMean_, b.sumHi * yScale_ + yMean_,
            std::max(priorVar_[j] - shrink * (b.maxLo * b.maxLo), 1e-12) *
                scale2,
            incumbent);
        // A NaN bound can never prune and is visited first.
        visit_[j] = {std::isnan(bound) ? std::numeric_limits<double>::infinity()
                                       : bound,
                     j};
    }
    // A max-heap on (bound, -index): candidates pop by descending bound,
    // and only the visited ones pay for their place in the order.
    const auto later = [](const auto &a, const auto &b) {
        return a.first < b.first || (a.first == b.first && a.second > b.second);
    };
    std::make_heap(visit_.begin(), visit_.end(), later);

    // Pass 2: visit by descending bound until one falls below the
    // running best; every later one is lower still. A visited
    // candidate gets predict()'s kernel row (its r² row again, from the
    // cached term rows) and mean, and the cutoff at its nearest-point
    // variance bound decides whether it needs the solve. Survivors are
    // solved kSolveBlock at a time, their rows held in rows_. A skipped
    // candidate's EI is strictly below an EI already computed, so it
    // can be neither the maximum nor its first index; among the solved
    // ones the smallest index wins ties, as in the serial scan.
    std::size_t best = m;
    double best_ei = -1.0;
    std::size_t block[kBlock];
    double block_mean[kBlock];
    std::size_t filled = 0;
    const auto solveBlock = [&] {
        linalg::Matrix rhs(n, filled);
        for (std::size_t c = 0; c < filled; ++c) {
            const double *row = rows_.data() + c * n;
            for (std::size_t i = 0; i < n; ++i)
                rhs(i, c) = row[i];
        }
        const linalg::Matrix v = chol_->solveLowerMulti(rhs);
        for (std::size_t c = 0; c < filled; ++c) {
            const std::size_t j = block[c];
            double explained = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                explained += v(i, c) * v(i, c);
            const Prediction pred{
                block_mean[c],
                std::max(priorVar_[j] - explained, 1e-12) * scale2};
            const double ei = expectedImprovement(pred, incumbent);
            if (ei > best_ei || (ei == best_ei && j < best)) {
                best_ei = ei;
                best = j;
            }
        }
        filled = 0;
    };
    for (auto end = visit_.end(); end != visit_.begin(); --end) {
        std::pop_heap(visit_.begin(), end, later);
        const auto [bound, j] = end[-1];
        if (bound < best_ei)
            break;
        double *row = rows_.data() + filled * n;
        squaredDistances(xs + j * dims, row);
        double mean_std = 0.0;
        double nearest = 0.0; // max_i k_i², NaN-free
        for (std::size_t i = 0; i < n; ++i) {
            const double k = kernelFromSquaredDistance(params_, row[i]);
            row[i] = k;
            mean_std += k * alpha_[i];
            nearest = std::max(nearest, k * k);
        }
        const double mean = mean_std * yScale_ + yMean_;
        const double cutoff = eiCutoff(
            mean, mean,
            std::max(priorVar_[j] - shrink * nearest, 1e-12) * scale2,
            incumbent);
        if (cutoff < best_ei)
            continue;
        block[filled] = j;
        block_mean[filled] = mean;
        if (++filled == kBlock)
            solveBlock();
    }
    if (filled > 0)
        solveBlock();
    return best;
}

void
GaussianProcess::squaredDistances(const double *x, double *r2)
{
    // A cache that outgrows this many doubles (candidates that rarely
    // repeat a coordinate) starts over.
    constexpr std::size_t kMaxTermRows = std::size_t{1} << 18;
    if (termRows_.size() > kMaxTermRows) {
        for (common::FlatIndex &s : termSlot_)
            s.clear();
        termRows_.clear();
    }
    const std::size_t dims = coordStart_.size() - 1;
    terms_.resize(coordValues_.size());
    for (std::size_t d = 0; d < dims; ++d) {
        const std::size_t begin = coordStart_[d];
        const std::size_t end = coordStart_[d + 1];
        const auto [offset, fresh] = termSlot_[d].emplace(
            std::bit_cast<std::uint64_t>(x[d]),
            static_cast<std::uint32_t>(termRows_.size()));
        if (fresh) {
            const double l = params_.lengthscale;
            for (std::size_t u = begin; u < end; ++u) {
                const double diff = (x[d] - coordValues_[u]) / l;
                termRows_.push_back(diff * diff);
            }
        }
        std::copy_n(termRows_.data() + offset, end - begin,
                    terms_.data() + begin);
    }
    const auto sum = dims < kSumTerms.size() ? kSumTerms[dims] : &sumTerms<0>;
    sum(terms_.data(), coordIndex_.data(), x_.size(), dims, r2);
}

double
GaussianProcess::logMarginalLikelihood() const
{
    return trained_ ? lml_ : -std::numeric_limits<double>::infinity();
}

double
expectedImprovement(const Prediction &pred, double best)
{
    const double sigma = std::sqrt(std::max(pred.variance, 1e-18));
    const double z = (best - pred.mean) / sigma;
    // Standard normal pdf/cdf.
    const double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
    const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
    const double ei = (best - pred.mean) * cdf + sigma * pdf;
    return std::max(ei, 0.0);
}

} // namespace unico::surrogate
