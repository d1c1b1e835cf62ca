#include "surrogate/kernel.hh"

#include <cassert>
#include <limits>

namespace unico::surrogate {

double
squaredScaledDistance(const KernelParams &params, const double *x,
                      const double *z, std::size_t dims)
{
    double r2 = 0.0;
    for (std::size_t i = 0; i < dims; ++i) {
        const double d = (x[i] - z[i]) / params.lengthscale;
        r2 += d * d;
    }
    return r2;
}

double
kernelValue(const KernelParams &params, const std::vector<double> &x,
            const std::vector<double> &z)
{
    assert(x.size() == z.size());
    return kernelFromSquaredDistance(
        params, squaredScaledDistance(params, x.data(), z.data(), x.size()));
}

KernelBracket::KernelBracket(const KernelParams &params)
    : variance_(params.variance)
{
    // Bucket t spans the edges t·h and (t+1)·h, both exact; the tail
    // spans kRange onwards, with 0 as its lower edge.
    table_.assign(2 * (kBuckets + 2), std::nan(""));
    double left = kernelFromSquaredDistance(params, 0.0);
    for (std::uint32_t t = 0; t <= kBuckets; ++t) {
        const double right =
            t < kBuckets ? kernelFromSquaredDistance(params, (t + 1) * kStep)
                         : 0.0;
        const double hi = left * (1.0 + kSlack);
        const double lo = right * (1.0 - kSlack);
        table_[2 * t] = 0.5 * (hi + lo);
        table_[2 * t + 1] = 0.5 * (hi - lo);
        left = right;
    }
}

KernelBracket::RowBounds
KernelBracket::bound(const double *r2, const double *w, const double *abs_w,
                     double abs_sum, std::size_t n) const
{
    const double *table = table_.data();
    double mid = 0.0;
    double rad = 0.0;
    std::uint32_t nearest = kBuckets + 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t t = bucket(r2[i]);
        nearest = std::min(nearest, t);
        mid += table[2 * t] * w[i];
        rad += table[2 * t + 1] * abs_w[i];
    }
    const double rounding = 4.0 * static_cast<double>(n + 2) *
                            (std::numeric_limits<double>::epsilon() / 2.0) *
                            abs_sum * variance_;
    return RowBounds{mid - rad - rounding, mid + rad + rounding,
                     lower(nearest)};
}

} // namespace unico::surrogate
