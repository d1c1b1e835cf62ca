/**
 * @file
 * Budgeted depth-first buffer-fusion mapping search for the
 * Ascend-like core (the role played by the in-house mapping tool of
 * Sec. 4.1). The run is a mapping::SearchRun over CubeMapping, so
 * successive halving grows its budget exactly as it does the spatial
 * engines', and it shares their screen and cache decorators.
 */

#ifndef UNICO_CAMODEL_SEARCH_HH
#define UNICO_CAMODEL_SEARCH_HH

#include <cstdint>

#include "camodel/cube_mapping.hh"
#include "common/rng.hh"
#include "mapping/engine.hh"

namespace unico::camodel {

/**
 * Resumable cube-mapping search.
 *
 * The strategy mirrors a depth-first fusion search: it starts from a
 * fusion-friendly seed, then refines tile sizes greedily depth-first
 * (L1 tiles before L0 tiles), falling back to stochastic restarts
 * when a branch is exhausted.
 */
class CubeSearchRun final : public mapping::SearchRun<CubeMapping>
{
  public:
    CubeSearchRun(const CubeMappingSpace &space,
                  mapping::Evaluator<CubeMapping> evaluator,
                  std::uint64_t seed);

    /** Spend @p evals more evaluations. */
    void step(int evals) override;

  private:
    /** record() plus the restart counter's bookkeeping. */
    void track(const CubeMapping &m, const mapping::MappingEval &eval);

    const CubeMappingSpace &space_;
    mapping::Evaluator<CubeMapping> evaluator_;
    common::Rng rng_;
    CubeMapping current_;
    mapping::MappingEval currentEval_;
    bool initialized_ = false;
    int sinceImprove_ = 0;
};

} // namespace unico::camodel

#endif // UNICO_CAMODEL_SEARCH_HH
