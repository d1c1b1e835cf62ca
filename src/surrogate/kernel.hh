/**
 * @file
 * Covariance kernels for the Gaussian-process surrogate.
 */

#ifndef UNICO_SURROGATE_KERNEL_HH
#define UNICO_SURROGATE_KERNEL_HH

#include <cmath>
#include <vector>

namespace unico::surrogate {

/** Kernel families supported by the GP. */
enum class KernelKind {
    SquaredExponential,
    Matern52,
};

/** Kernel hyperparameters over normalized inputs. */
struct KernelParams
{
    KernelKind kind = KernelKind::Matern52;
    double lengthscale = 0.3; ///< shared lengthscale in [0,1]^d space
    double variance = 1.0;    ///< signal variance
    double noise = 1e-4;      ///< observation noise variance
    /** Per-dimension ARD lengthscales; when non-empty they override
     *  the shared lengthscale (automatic relevance determination:
     *  large lengthscale = irrelevant input). */
    std::vector<double> ardLengthscales;
};

/** Lengthscale of input dimension @p dim. */
inline double
lengthscaleOf(const KernelParams &params, std::size_t dim)
{
    return params.ardLengthscales.empty() ? params.lengthscale
                                          : params.ardLengthscales[dim];
}

/**
 * The kernel as a function of the squared scaled distance
 * r² = Σ ((x_i - z_i) / l_i)². kernelValue() finishes with it, so a
 * caller that sums r² in kernelValue()'s order gets its bits.
 */
inline double
kernelFromSquaredDistance(const KernelParams &params, double r2)
{
    switch (params.kind) {
      case KernelKind::SquaredExponential:
        return params.variance * std::exp(-0.5 * r2);
      case KernelKind::Matern52: {
        const double a = std::sqrt(5.0 * r2);
        return params.variance * (1.0 + a + 5.0 * r2 / 3.0) *
               std::exp(-a);
      }
    }
    return 0.0;
}

/** k(x, z) for the given parameters. */
double kernelValue(const KernelParams &params, const std::vector<double> &x,
                   const std::vector<double> &z);

} // namespace unico::surrogate

#endif // UNICO_SURROGATE_KERNEL_HH
