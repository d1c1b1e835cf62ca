/**
 * @file
 * Batched multi-objective Bayesian-optimization hardware sampler
 * (Sec. 3.2): a ParEGO-style surrogate (GP over the scalarized
 * objective with per-slot random simplex weights) proposes batches
 * of N hardware configurations by maximizing expected improvement
 * over a candidate pool of random and locally mutated designs.
 */

#ifndef UNICO_CORE_MOBO_HH
#define UNICO_CORE_MOBO_HH

#include <cstdint>
#include <span>
#include <vector>

#include "accel/design_space.hh"
#include "common/flat_index.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "moo/pareto.hh"
#include "surrogate/gp.hh"

namespace unico::core {

/** Tunables of the MOBO hardware sampler. */
struct MoboConfig
{
    /** Fraction of each batch drawn uniformly at random (BOHB-style
     *  exploration mix; 0 = fully model-guided). */
    double randomFraction = 0.0;
    /** Worker threads for the GP hyperparameter grid search
     *  (0 = hardware concurrency; results are thread-count
     *  independent). */
    std::size_t gpThreads = 0;
};

/** Batched MOBO sampler over a discrete hardware design space. */
class MoboHwSampler
{
  public:
    /** Throws std::invalid_argument when @p space has 2⁶⁴ or more
     *  points: points are deduplicated on their index in it. */
    MoboHwSampler(const accel::DesignSpace &space,
                  std::size_t num_objectives, std::uint64_t seed,
                  MoboConfig cfg = MoboConfig{});

    /**
     * Record an evaluated hardware sample.
     * @param high_fidelity whether the sample passed the High
     *        Fidelity Update Rule (only these train the surrogate).
     */
    void observe(const accel::HwPoint &h, const moo::Objectives &y,
                 bool high_fidelity);

    /** Total observations recorded. */
    std::size_t observations() const { return all_.size(); }

    /** Observations currently marked high fidelity. */
    std::size_t highFidelityCount() const;

    /**
     * Flip the high-fidelity flag of observation @p index (insertion
     * order). The driver records a whole batch first, runs the
     * update rule on the batch's normalized objectives, then marks
     * the selected samples.
     */
    void setHighFidelity(std::size_t index, bool high_fidelity);

    /**
     * Min-max normalize raw objectives using the running ideal/nadir
     * over *all* observations (so scalars are comparable across MOBO
     * trials).
     */
    moo::Objectives normalize(const moo::Objectives &y) const;

    /**
     * Propose a batch of @p n hardware configurations, deduplicated
     * against each other and against past observations where
     * possible. Falls back to random sampling until the surrogate
     * has enough high-fidelity data.
     */
    std::vector<accel::HwPoint> sampleBatch(std::size_t n);

    /** Proposals that fell back to space-filling sampling because the
     *  GP fit failed (Cholesky jitter exhausted) or produced a
     *  non-finite posterior. Monotone; the driver tracks deltas. */
    std::uint64_t gpFallbacks() const { return gpFallbacks_; }

    /**
     * Serialize the sampler state (observations, RNG, tuned kernel)
     * for checkpointing. restoreState() on a sampler constructed
     * with the same space/objectives/config reproduces the exact
     * sampling stream the saved sampler would have produced.
     */
    common::Json saveState() const;

    /**
     * Stream saveState()'s document into @p w. The observations only
     * grow, and the driver flags an observation high fidelity in the
     * trial that adds it, so @p observations keeps each one's text
     * from the first call that writes it (see JsonWriter::cachedArray).
     */
    void writeState(common::JsonWriter &w,
                    common::JsonArrayCache &observations) const;

    /** Restore a snapshot produced by saveState(). */
    void restoreState(const common::Json &state);

  private:
    struct Obs
    {
        accel::HwPoint h;
        std::vector<double> x; ///< normalized design vector
        moo::Objectives y;     ///< raw objectives
        bool highFidelity;
    };

    /** Training set and surrogate shared by the slots of one
     *  sampleBatch() call. */
    struct BatchModel;

    accel::HwPoint proposeOne(BatchModel &model);

    /** The mixed-radix index of point @p p in the design space. */
    std::uint64_t code(std::span<const std::size_t> p) const;

    const accel::DesignSpace &space_;
    std::size_t numObjectives_;
    MoboConfig cfg_;
    common::Rng rng_;
    std::vector<std::uint64_t> stride_; ///< place value of each axis
    std::vector<Obs> all_;
    common::FlatIndex seen_; ///< code() of every observed point
    moo::Objectives ideal_;
    moo::Objectives nadir_;
    surrogate::KernelParams kernelParams_;
    bool kernelTuned_ = false;
    std::uint64_t gpFallbacks_ = 0;
};

} // namespace unico::core

#endif // UNICO_CORE_MOBO_HH
