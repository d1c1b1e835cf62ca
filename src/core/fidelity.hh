/**
 * @file
 * The High Fidelity Update Rule of Sec. 3.2.
 *
 * After each MOBO trial, only hardware samples whose ParEGO fidelity
 * scalar lies within the adaptive Upper Update Limit (UUL) of the
 * best scalar seen so far are used to update the surrogate model:
 *
 *   1. v = v_ParEGO(Y)                            (Eq. 1)
 *   2. d = | v - v_best |
 *   3. select samples with d <= UUL; add their d to the set D
 *   4. UUL <- 95th percentile of D
 *
 * UUL tends to shrink over trials, giving progressively stricter,
 * more exploitative surrogate updates.
 */

#ifndef UNICO_CORE_FIDELITY_HH
#define UNICO_CORE_FIDELITY_HH

#include <cstddef>
#include <vector>

#include "moo/pareto.hh"

namespace unico::core {

/** Stateful implementation of the High Fidelity Update Rule. */
class HighFidelitySelector
{
  public:
    /**
     * @param weights importance weights of Eq. (1); must sum to 1.
     * @param rho augmentation coefficient of Eq. (1).
     * @param percentile UUL refresh percentile (paper: 95).
     */
    explicit HighFidelitySelector(std::vector<double> weights,
                                  double rho = 0.2,
                                  double percentile = 95.0);

    /**
     * Select the high-fidelity subset of a batch.
     *
     * @param normalized_batch batch objective vectors, min-max
     *        normalized into [0,1]^d (the caller owns normalization
     *        so the scalar is comparable across trials).
     * @return indices of selected samples, in batch order. The first
     *         trial (UUL not yet set) selects every sample.
     */
    std::vector<std::size_t>
    select(const std::vector<moo::Objectives> &normalized_batch);

    /** Current Upper Update Limit (infinity before the first trial). */
    double uul() const { return uul_; }

    /** Best (smallest) fidelity scalar seen so far. */
    double bestScalar() const { return vBest_; }

    /** The distance set D, in insertion order; it only grows. */
    const std::vector<double> &distances() const { return distances_; }

    /** Fidelity scalar of a single objective vector (Eq. 1). */
    double scalar(const moo::Objectives &normalized_y) const;

    /** Mutable rule state, exposed for checkpoint/resume. */
    struct State
    {
        double vBest;
        double uul;
        std::vector<double> distances;
    };

    /** Snapshot the rule state. */
    State
    saveState() const
    {
        return State{vBest_, uul_, distances_};
    }

    /** Restore a snapshot taken with saveState(). */
    void
    restoreState(const State &st)
    {
        vBest_ = st.vBest;
        uul_ = st.uul;
        distances_ = st.distances;
    }

  private:
    std::vector<double> weights_;
    double rho_;
    double percentile_;
    double vBest_;
    double uul_;
    std::vector<double> distances_; ///< the set D
};

} // namespace unico::core

#endif // UNICO_CORE_FIDELITY_HH
