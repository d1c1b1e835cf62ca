#include "common/statistics.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace unico::common {

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
variance(const std::vector<double> &v)
{
    if (v.size() < 2)
        return 0.0;
    const double m = mean(v);
    double acc = 0.0;
    for (double x : v)
        acc += (x - m) * (x - m);
    return acc / static_cast<double>(v.size());
}

double
stddev(const std::vector<double> &v)
{
    return std::sqrt(variance(v));
}

double
percentile(std::vector<double> v, double p)
{
    assert(!v.empty());
    assert(p >= 0.0 && p <= 100.0);
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return v.front();
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
aucAboveTerminal(const std::vector<double> &curve)
{
    if (curve.size() < 2)
        return 0.0;
    const double terminal = curve.back();
    double auc = 0.0;
    for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
        const double a = std::max(curve[i] - terminal, 0.0);
        const double b = std::max(curve[i + 1] - terminal, 0.0);
        auc += 0.5 * (a + b);
    }
    return auc;
}

double
pearson(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size() || a.size() < 2)
        return 0.0;
    const double ma = mean(a);
    const double mb = mean(b);
    double num = 0.0, da = 0.0, db = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        num += (a[i] - ma) * (b[i] - mb);
        da += (a[i] - ma) * (a[i] - ma);
        db += (b[i] - mb) * (b[i] - mb);
    }
    if (da <= 0.0 || db <= 0.0)
        return 0.0;
    return num / std::sqrt(da * db);
}

namespace {

std::vector<double>
ranks(const std::vector<double> &v)
{
    const auto order = argsortAscending(v);
    std::vector<double> r(v.size(), 0.0);
    std::size_t i = 0;
    while (i < order.size()) {
        std::size_t j = i;
        while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]])
            ++j;
        // Average rank for ties.
        const double avg = 0.5 * static_cast<double>(i + j) + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            r[order[k]] = avg;
        i = j + 1;
    }
    return r;
}

} // namespace

double
spearman(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size() || a.size() < 2)
        return 0.0;
    return pearson(ranks(a), ranks(b));
}

std::vector<std::size_t>
argsortAscending(const std::vector<double> &v)
{
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    return idx;
}

std::vector<std::size_t>
argsortDescending(const std::vector<double> &v)
{
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) { return v[a] > v[b]; });
    return idx;
}

double
l2Distance(const std::vector<double> &a, const std::vector<double> &b)
{
    assert(a.size() == b.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(acc);
}

} // namespace unico::common
