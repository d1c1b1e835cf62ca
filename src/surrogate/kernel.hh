/**
 * @file
 * The Matérn-5/2 covariance kernel of the Gaussian-process surrogate.
 */

#ifndef UNICO_SURROGATE_KERNEL_HH
#define UNICO_SURROGATE_KERNEL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace unico::surrogate {

/** Matérn-5/2 kernel hyperparameters over normalized inputs. */
struct KernelParams
{
    double lengthscale = 0.3; ///< shared lengthscale in [0,1]^d space
    double variance = 1.0;    ///< signal variance
    double noise = 1e-4;      ///< observation noise variance
};

/**
 * The kernel as a function of the squared scaled distance
 * r² = Σ ((x_i - z_i) / l)². kernelValue() finishes with it, so a
 * caller that sums r² in kernelValue()'s order gets its bits.
 */
inline double
kernelFromSquaredDistance(const KernelParams &params, double r2)
{
    const double a = std::sqrt(5.0 * r2);
    return params.variance * (1.0 + a + 5.0 * r2 / 3.0) * std::exp(-a);
}

/** The r² that kernelValue() passes to kernelFromSquaredDistance():
 *  Σ ((x_d - z_d) / l)² over @p dims coordinates, summed from 0.0
 *  in ascending dimension. */
double squaredScaledDistance(const KernelParams &params, const double *x,
                             const double *z, std::size_t dims);

/** k(x, z) for the given parameters. */
double kernelValue(const KernelParams &params, const std::vector<double> &x,
                   const std::vector<double> &z);

/**
 * Certified brackets of kernelFromSquaredDistance() over buckets of
 * r². Bucket t < kBuckets holds r² in [t·h, (t+1)·h) with the step
 * h = kStep a power of two, so bucket() = ⌊r²/h⌋ is exact. Bucket
 * kBuckets, the tail, holds r² in [kRange, kTailEnd); past kTailEnd
 * (or at NaN) 5r² may overflow and the computed Matérn value is NaN,
 * so such r² have no bucket. For every r² in bucket t,
 *
 *     lower(t) <= kernelFromSquaredDistance(params, r²) <= upper(t).
 *
 * The exact kernel decreases in r², so it lies between its values at
 * the bucket's edges; the bracket widens the computed edge values by
 * the relative slack kSlack (ε), which covers the rounding of both
 * computed values (DESIGN.md §10). The tail's lower edge is 0.
 */
class KernelBracket
{
  public:
    static constexpr double kStep = 0x1p-8;
    static constexpr double kRange = 64.0;
    static constexpr std::uint32_t kBuckets = 16384; ///< kRange / kStep
    static constexpr double kTailEnd = 0x1p1000;
    static constexpr double kSlack = 1e-12;

    KernelBracket() = default;

    /** Tabulate the kernel of @p params at the kBuckets + 1 edges. */
    explicit KernelBracket(const KernelParams &params);

    /** True when built for @p params' kernel (the bracket depends on
     *  its variance only; the lengthscale scales r²). */
    bool
    builtFor(const KernelParams &params) const
    {
        return !table_.empty() && variance_ == params.variance;
    }

    /** The bucket of @p r2, or kBuckets + 1 when it has none. */
    static std::uint32_t
    bucket(double r2)
    {
        const double q = r2 * (1.0 / kStep); // exact: h is 2⁻⁸
        const std::uint32_t past = r2 < kTailEnd ? kBuckets : kBuckets + 1;
        return q < static_cast<double>(kBuckets)
                   ? static_cast<std::uint32_t>(q)
                   : past;
    }

    double
    lower(std::uint32_t t) const
    {
        return std::max(table_[2 * t] - table_[2 * t + 1], 0.0);
    }

    double
    upper(std::uint32_t t) const
    {
        return table_[2 * t] + table_[2 * t + 1];
    }

    /** What bound() certifies about one kernel row. */
    struct RowBounds
    {
        double sumLo = 0.0; ///< at most Σ k_i·w_i
        double sumHi = 0.0; ///< at least Σ k_i·w_i
        double maxLo = 0.0; ///< at most max_i k_i
    };

    /**
     * Bounds on the row k_i = kernelFromSquaredDistance(params, r2[i]),
     * i < n, and on Σ k_i·w_i as predict() sums it: in any order, with
     * every rounding (DESIGN.md §10). @p abs_w holds |w_i| and
     * @p abs_sum their sum. Each k_i lies in its bucket's bracket,
     * [mid_i - rad_i, mid_i + rad_i], so the sum lies in
     * Σ mid_i·w_i ∓ Σ rad_i·|w_i|, widened by 4(n+2)u·Σ|w_i|·σ_f² for
     * the rounding of the three sums; the nearest bucket's lower edge
     * bounds the largest k_i. An r² without a bucket, or a non-finite
     * weight, makes the bounds NaN.
     */
    RowBounds bound(const double *r2, const double *w, const double *abs_w,
                    double abs_sum, std::size_t n) const;

  private:
    double variance_ = 0.0;
    /** Midpoint and half-width of every bucket's bracket, interleaved:
     *  bucket t's are entries 2t and 2t + 1. Those of bucket
     *  kBuckets + 1 (no bucket) are NaN, so a sum that reads them is
     *  NaN rather than a bound. */
    std::vector<double> table_;
};

} // namespace unico::surrogate

#endif // UNICO_SURROGATE_KERNEL_HH
