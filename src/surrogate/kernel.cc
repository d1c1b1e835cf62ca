#include "surrogate/kernel.hh"

#include <cassert>

namespace unico::surrogate {

double
kernelValue(const KernelParams &params, const std::vector<double> &x,
            const std::vector<double> &z)
{
    assert(x.size() == z.size());
    assert(params.ardLengthscales.empty() ||
           params.ardLengthscales.size() == x.size());
    // Squared scaled distance r^2 = sum ((x_i - z_i) / l_i)^2, summed
    // from 0.0 in ascending dimension.
    double r2 = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = (x[i] - z[i]) / lengthscaleOf(params, i);
        r2 += d * d;
    }
    return kernelFromSquaredDistance(params, r2);
}

} // namespace unico::surrogate
