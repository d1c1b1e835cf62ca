/**
 * @file
 * Small statistics helpers: summaries, percentiles, AUC, correlation.
 *
 * These are the numeric primitives behind the modified successive
 * halving (area-under-curve promotion criterion), the High Fidelity
 * Update Rule (95th-percentile Upper Update Limit) and the robustness
 * metric (right-tail percentile of a mapping-loss history).
 */

#ifndef UNICO_COMMON_STATISTICS_HH
#define UNICO_COMMON_STATISTICS_HH

#include <cstddef>
#include <vector>

namespace unico::common {

/** Arithmetic mean; returns 0 for an empty vector. */
double mean(const std::vector<double> &v);

/** Population variance; returns 0 for fewer than two samples. */
double variance(const std::vector<double> &v);

/** Population standard deviation. */
double stddev(const std::vector<double> &v);

/**
 * Linear-interpolated percentile.
 *
 * @param v sample values (not required to be sorted)
 * @param p percentile in [0, 100]
 */
double percentile(std::vector<double> v, double p);

/**
 * Area trapped between a monotonically non-increasing loss curve and
 * the horizontal line through its terminal value (Fig. 4b of the
 * paper). A larger AUC indicates a deep and/or recent descent — the
 * "steep convergence rate" signal that the modified successive
 * halving promotes with a second chance; early-plateaued curves trap
 * little area.
 *
 * The x axis is the sample index (unit spacing); the trapezoid rule
 * is applied to max(curve[i] - terminal, 0).
 */
double aucAboveTerminal(const std::vector<double> &curve);

/** Pearson correlation coefficient; 0 when undefined. */
double pearson(const std::vector<double> &a, const std::vector<double> &b);

/** Spearman rank correlation; 0 when undefined. */
double spearman(const std::vector<double> &a, const std::vector<double> &b);

/** Indices that would sort v ascending (stable). */
std::vector<std::size_t> argsortAscending(const std::vector<double> &v);

/** Indices that would sort v descending (stable). */
std::vector<std::size_t> argsortDescending(const std::vector<double> &v);

/** Euclidean distance between two equally sized vectors. */
double l2Distance(const std::vector<double> &a, const std::vector<double> &b);

} // namespace unico::common

#endif // UNICO_COMMON_STATISTICS_HH
