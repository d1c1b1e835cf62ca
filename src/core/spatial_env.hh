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

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/spatial.hh"
#include "common/cancel.hh"
#include "core/env.hh"
#include "costmodel/analytical.hh"
#include "mapping/engine.hh"
#include "workload/network.hh"

namespace unico::core {

/** Construction options for SpatialEnv. */
struct SpatialEnvOptions
{
    accel::Scenario scenario = accel::Scenario::Edge;
    mapping::EngineKind engine = mapping::EngineKind::Annealing;
    /** Dominant unique layer shapes kept per network (bounds the
     *  per-HW mapping-search work; layers are count-weighted so the
     *  latency profile is preserved). */
    std::size_t maxShapesPerNetwork = 6;
    /** Learned surrogate screening context (owned by the caller);
     *  nullptr or options.enabled == false keeps the exact-only path
     *  byte-identical to builds without the surrogate. */
    surrogate::SurrogateContext *surrogate = nullptr;
    /** Per-job cancellation token (owned by the caller, e.g. a
     *  JobContext); threaded into every MappingRun the env creates so
     *  a cancelled job stops mid-sweep instead of at the driver's
     *  next chunk boundary. nullptr (the default) keeps runs
     *  non-cancellable from inside, exactly as before. */
    const common::CancelToken *cancel = nullptr;
};

/** Spatial-accelerator co-search environment. */
class SpatialEnv : public CoSearchEnv
{
  public:
    SpatialEnv(std::vector<workload::Network> networks,
               SpatialEnvOptions opt = SpatialEnvOptions{});

    const accel::DesignSpace &hwSpace() const override;
    std::unique_ptr<MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const override;
    double powerBudgetMw() const override;
    std::string describeHw(const accel::HwPoint &h) const override;
    surrogate::SurrogateStats surrogateStats() const override
    {
        return opt_.surrogate != nullptr
                   ? opt_.surrogate->snapshot()
                   : surrogate::SurrogateStats{};
    }
    /** Every SH round must seed each unique layer shape once. */
    int minSeedBudget() const override
    {
        return std::max<int>(1, static_cast<int>(layers_.size()));
    }
    std::string backendName() const override { return "spatial"; }
    std::string scenarioName() const override;
    std::uint64_t workloadDigest() const override;

    /** The typed spatial design space (for decode in benches). */
    const accel::SpatialDesignSpace &spatialSpace() const { return space_; }

    /** The PPA engine (for direct evaluation in tests/benches). */
    const costmodel::AnalyticalCostModel &model() const { return model_; }

    /** The count-weighted layer set being co-optimized. */
    const std::vector<workload::WeightedOp> &layers() const
    {
        return layers_;
    }

    /** Engine family used for mapping search. */
    mapping::EngineKind engine() const { return opt_.engine; }

  private:
    SpatialEnvOptions opt_;
    accel::SpatialDesignSpace space_;
    costmodel::AnalyticalCostModel model_;
    std::vector<workload::WeightedOp> layers_;
    std::vector<mapping::MappingSpace> mapSpaces_;
};

} // namespace unico::core

#endif // UNICO_CORE_SPATIAL_ENV_HH
