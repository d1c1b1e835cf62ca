/**
 * @file
 * Generic discrete hardware design space.
 *
 * Every hardware template (the open-source spatial accelerator of
 * Fig. 1 and the Ascend-like cube core of Sec. 4.1) is expressed as a
 * set of named axes, each with a finite ordered list of values. A
 * hardware configuration is an index vector into those axes. The
 * MOBO surrogate consumes the normalized ([0,1]^d) embedding; the
 * cost models consume the decoded values.
 */

#ifndef UNICO_ACCEL_DESIGN_SPACE_HH
#define UNICO_ACCEL_DESIGN_SPACE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace unico::accel {

/** A hardware configuration: one index per design-space axis. */
using HwPoint = std::vector<std::size_t>;

/** One discrete design axis (e.g. PE_x or L1 size). */
struct Axis
{
    std::string name;           ///< axis name for reporting
    std::vector<double> values; ///< ordered candidate values
};

/** A finite, multi-axis discrete design space. */
class DesignSpace
{
  public:
    DesignSpace() = default;

    /** Append an axis; values must be non-empty. */
    void addAxis(std::string name, std::vector<double> values);

    /** Number of axes. */
    std::size_t dims() const { return axes_.size(); }

    /** Axis metadata. */
    const Axis &axis(std::size_t i) const { return axes_[i]; }

    /** Total number of configurations (as double; spaces reach 1e9). */
    double cardinality() const;

    /** Decoded value of axis @p axis for configuration @p p. */
    double value(const HwPoint &p, std::size_t axis) const;

    /** True if @p p indexes every axis within range. */
    bool contains(const HwPoint &p) const;

    /** Uniform random configuration. */
    HwPoint randomPoint(common::Rng &rng) const;

    /** randomPoint(), written to @p out (dims() entries) with the same
     *  draws. */
    void randomPoint(common::Rng &rng, std::span<std::size_t> out) const;

    /**
     * Local mutation: move 1..@p max_moves axes by +-1 step (ordered
     * axes) or to a random value. Used by acquisition optimization
     * and the evolutionary baselines.
     */
    HwPoint neighbor(const HwPoint &p, common::Rng &rng,
                     std::size_t max_moves = 2) const;

    /** neighbor(), written to @p q (dims() entries) with the same
     *  draws. */
    void neighbor(const HwPoint &p, common::Rng &rng, std::size_t max_moves,
                  std::span<std::size_t> q) const;

    /** Uniform crossover of two parents. */
    HwPoint crossover(const HwPoint &a, const HwPoint &b,
                      common::Rng &rng) const;

    /** Normalized [0,1]^d embedding for the surrogate model. */
    std::vector<double> normalize(const HwPoint &p) const;

    /** normalize() of the point @p p, written to @p out (dims()
     *  entries). */
    void normalize(std::span<const std::size_t> p,
                   std::span<double> out) const;

    /** Human-readable "name=value" listing. */
    std::string describe(const HwPoint &p) const;

  private:
    std::vector<Axis> axes_;
};

/**
 * The set {2^i * 3^j : i,j in [0, max_exp]} intersected with
 * [lo, hi], sorted ascending — the buffer-size grid of Sec. 4.1.
 */
std::vector<double> smoothGrid(double lo, double hi, int max_exp = 10);

} // namespace unico::accel

#endif // UNICO_ACCEL_DESIGN_SPACE_HH
