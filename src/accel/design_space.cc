#include "accel/design_space.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace unico::accel {

void
DesignSpace::addAxis(std::string name, std::vector<double> values)
{
    assert(!values.empty());
    axes_.push_back(Axis{std::move(name), std::move(values)});
}

double
DesignSpace::cardinality() const
{
    double card = 1.0;
    for (const auto &axis : axes_)
        card *= static_cast<double>(axis.values.size());
    return card;
}

double
DesignSpace::value(const HwPoint &p, std::size_t axis) const
{
    assert(axis < axes_.size());
    assert(p.size() == axes_.size());
    assert(p[axis] < axes_[axis].values.size());
    return axes_[axis].values[p[axis]];
}

bool
DesignSpace::contains(const HwPoint &p) const
{
    if (p.size() != axes_.size())
        return false;
    for (std::size_t i = 0; i < p.size(); ++i)
        if (p[i] >= axes_[i].values.size())
            return false;
    return true;
}

HwPoint
DesignSpace::randomPoint(common::Rng &rng) const
{
    HwPoint p(axes_.size(), 0);
    randomPoint(rng, p);
    return p;
}

void
DesignSpace::randomPoint(common::Rng &rng, std::span<std::size_t> out) const
{
    assert(out.size() == axes_.size());
    for (std::size_t i = 0; i < axes_.size(); ++i)
        out[i] = rng.uniformInt(axes_[i].values.size());
}

HwPoint
DesignSpace::neighbor(const HwPoint &p, common::Rng &rng,
                      std::size_t max_moves) const
{
    HwPoint q(p.size(), 0);
    neighbor(p, rng, max_moves, q);
    return q;
}

void
DesignSpace::neighbor(const HwPoint &p, common::Rng &rng,
                      std::size_t max_moves, std::span<std::size_t> q) const
{
    assert(contains(p));
    assert(q.size() == p.size());
    std::copy(p.begin(), p.end(), q.begin());
    const std::size_t moves = 1 + rng.uniformInt(std::max<std::size_t>(
                                      max_moves, 1));
    for (std::size_t m = 0; m < moves; ++m) {
        const std::size_t axis = rng.uniformInt(axes_.size());
        const std::size_t n = axes_[axis].values.size();
        if (n == 1)
            continue;
        if (rng.bernoulli(0.7)) {
            // Step move along the ordered axis.
            if (q[axis] == 0)
                q[axis] = 1;
            else if (q[axis] == n - 1)
                q[axis] = n - 2;
            else
                q[axis] += rng.bernoulli(0.5) ? 1 : -1;
        } else {
            // Jump move for escaping local basins.
            q[axis] = rng.uniformInt(n);
        }
    }
}

HwPoint
DesignSpace::crossover(const HwPoint &a, const HwPoint &b,
                       common::Rng &rng) const
{
    assert(contains(a) && contains(b));
    HwPoint child(a.size(), 0);
    for (std::size_t i = 0; i < a.size(); ++i)
        child[i] = rng.bernoulli(0.5) ? a[i] : b[i];
    return child;
}

std::vector<double>
DesignSpace::normalize(const HwPoint &p) const
{
    assert(contains(p));
    std::vector<double> out(p.size(), 0.0);
    normalize(p, out);
    return out;
}

void
DesignSpace::normalize(std::span<const std::size_t> p,
                       std::span<double> out) const
{
    assert(p.size() == axes_.size() && out.size() == p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
        const std::size_t n = axes_[i].values.size();
        out[i] = n > 1
                     ? static_cast<double>(p[i]) / static_cast<double>(n - 1)
                     : 0.5;
    }
}

std::string
DesignSpace::describe(const HwPoint &p) const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (i)
            oss << " ";
        oss << axes_[i].name << "=" << value(p, i);
    }
    return oss.str();
}

std::vector<double>
smoothGrid(double lo, double hi, int max_exp)
{
    std::vector<double> out;
    double p2 = 1.0;
    for (int i = 0; i <= max_exp; ++i, p2 *= 2.0) {
        double p3 = 1.0;
        for (int j = 0; j <= max_exp; ++j, p3 *= 3.0) {
            const double v = p2 * p3;
            if (v >= lo && v <= hi)
                out.push_back(v);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace unico::accel
