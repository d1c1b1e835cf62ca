/**
 * @file
 * Open-source-platform co-search environment: the spatial template
 * (Fig. 1), a FlexTensor/GAMMA-style mapping search engine and the
 * analytical (MAESTRO-style) PPA model. Supports multi-workload
 * co-optimization: the aggregated objective is the count-weighted
 * sum over the dominant unique layer shapes of every input network.
 */

#ifndef UNICO_CORE_SPATIAL_ENV_HH
#define UNICO_CORE_SPATIAL_ENV_HH

#include <memory>
#include <vector>

#include "accel/spatial.hh"
#include "core/layered_run.hh"
#include "costmodel/analytical.hh"
#include "mapping/engine.hh"
#include "workload/network.hh"

namespace unico::core {

/** Spatial-accelerator co-search environment. */
class SpatialEnv : public LayeredEnv
{
  public:
    /** Reads scenario, engine, maxShapesPerNetwork and surrogate;
     *  ignores cache (see SpatialRunPolicy). */
    SpatialEnv(std::vector<workload::Network> networks,
               const BackendOptions &opt = {});

    const accel::DesignSpace &hwSpace() const override;
    std::unique_ptr<MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const override;
    double powerBudgetMw() const override;
    std::string describeHw(const accel::HwPoint &h) const override;
    std::string backendName() const override { return "spatial"; }
    std::string scenarioName() const override;

    /** The typed spatial design space (for decode in benches). */
    const accel::SpatialDesignSpace &spatialSpace() const { return space_; }

    /** The PPA engine (for direct evaluation in tests/benches). */
    const costmodel::AnalyticalCostModel &model() const { return model_; }

  private:
    accel::SpatialDesignSpace space_;
    costmodel::AnalyticalCostModel model_;
    std::vector<mapping::MappingSpace> mapSpaces_;
};

} // namespace unico::core

#endif // UNICO_CORE_SPATIAL_ENV_HH
