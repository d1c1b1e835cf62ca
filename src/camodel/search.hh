/**
 * @file
 * Budgeted depth-first buffer-fusion mapping search for the
 * Ascend-like core (the role played by the in-house mapping tool of
 * Sec. 4.1). The run is resumable with the same semantics as
 * mapping::SearchRun so successive halving can grow its budget.
 */

#ifndef UNICO_CAMODEL_SEARCH_HH
#define UNICO_CAMODEL_SEARCH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "accel/ppa.hh"
#include "camodel/cube_mapping.hh"
#include "common/rng.hh"
#include "mapping/engine.hh"

namespace unico::camodel {

/** Evaluation callback: cube mapping -> (ppa, loss). */
using CubeEvaluator =
    std::function<mapping::MappingEval(const CubeMapping &)>;

/**
 * Cube-side candidate pre-screen (see mapping::CandidateScreen for
 * the contract; this is the CubeMapping-typed twin, declared here so
 * camodel needs no dependency on the surrogate library).
 */
class CubeCandidateScreen
{
  public:
    virtual ~CubeCandidateScreen() = default;

    /** Surrogate prediction to skip exact evaluation, or nullopt. */
    virtual std::optional<mapping::MappingEval>
    screen(const CubeMapping &m) = 0;

    /** Feed one exact evaluation back as training signal. */
    virtual void observeExact(const CubeMapping &m,
                              const mapping::MappingEval &eval) = 0;
};

/**
 * Wrap @p inner with learned-model pre-screening; nullptr @p screen
 * returns @p inner unchanged. Same layering contract as the spatial
 * mapping::screeningEvaluator: above the cache, exact evals train
 * the screen, screened-out candidates are surrogate-fidelity.
 */
CubeEvaluator screeningEvaluator(CubeCandidateScreen *screen,
                                 CubeEvaluator inner);

/**
 * Resumable cube-mapping search.
 *
 * The strategy mirrors a depth-first fusion search: it starts from a
 * fusion-friendly seed, then refines tile sizes greedily depth-first
 * (L1 tiles before L0 tiles), falling back to stochastic restarts
 * when a branch is exhausted.
 *
 * Every candidate after the seed is generated from the incumbent's
 * evaluation (greedy descent with backtrack), so — unlike the spatial
 * engines' sampling/seeding phases — there is no evaluation-
 * independent block to fan out: the run always evaluates serially.
 */
class CubeSearchRun
{
  public:
    CubeSearchRun(const CubeMappingSpace &space, CubeEvaluator evaluator,
                  std::uint64_t seed);

    /** Spend @p evals more evaluations. */
    void step(int evals);

    /** Total evaluations spent. */
    int spent() const { return static_cast<int>(bestLoss_.size()); }

    /** Best mapping found so far. */
    const CubeMapping &best() const { return bestMapping_; }

    /** Evaluation of the best mapping. */
    const mapping::MappingEval &bestEval() const { return bestEval_; }

    /** Best-so-far loss after each evaluation (monotone). */
    const std::vector<double> &
    bestLossHistory() const
    {
        return bestLoss_;
    }

    /** Every raw sample (for the robustness metric). */
    const std::vector<mapping::SamplePoint> &
    samples() const
    {
        return samples_;
    }

  private:
    void record(const CubeMapping &m, const mapping::MappingEval &eval);

    const CubeMappingSpace &space_;
    CubeEvaluator evaluator_;
    common::Rng rng_;
    CubeMapping current_;
    mapping::MappingEval currentEval_;
    bool initialized_ = false;
    int sinceImprove_ = 0;

    CubeMapping bestMapping_;
    mapping::MappingEval bestEval_;
    std::vector<double> bestLoss_;
    std::vector<mapping::SamplePoint> samples_;
};

} // namespace unico::camodel

#endif // UNICO_CAMODEL_SEARCH_HH
