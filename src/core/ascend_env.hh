/**
 * @file
 * Ascend-like co-search environment (Sec. 4.6): the cube-core design
 * space, the depth-first buffer-fusion mapping search and the
 * cycle-level simulator as the (expensive) PPA engine. Each query
 * charges minutes of virtual search cost, reproducing the economics
 * that make UNICO's fast convergence matter on industrial platforms.
 */

#ifndef UNICO_CORE_ASCEND_ENV_HH
#define UNICO_CORE_ASCEND_ENV_HH

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "accel/ascend.hh"
#include "camodel/simulator.hh"
#include "common/cancel.hh"
#include "core/env.hh"
#include "workload/network.hh"

namespace unico::core {

/** Construction options for AscendEnv. */
struct AscendEnvOptions
{
    /** Edge-device chip area constraint of Sec. 4.6. */
    double areaBudgetMm2 = 200.0;
    std::size_t maxShapesPerNetwork = 5;
    /** Shared evaluation cache (owned by the caller, e.g. the CLI);
     *  nullptr disables memoization. Results are bit-identical with
     *  or without it — only wall-clock changes. */
    accel::EvalCache *cache = nullptr;
    /** Learned surrogate screening context (owned by the caller);
     *  nullptr or options.enabled == false keeps the exact-only path
     *  byte-identical to builds without the surrogate. */
    surrogate::SurrogateContext *surrogate = nullptr;
    /** Per-job cancellation token (owned by the caller); threaded
     *  into every MappingRun for mid-sweep early return. nullptr
     *  keeps the historical non-cancellable runs. */
    const common::CancelToken *cancel = nullptr;
};

/** Ascend-like co-search environment. */
class AscendEnv : public CoSearchEnv
{
  public:
    AscendEnv(std::vector<workload::Network> networks,
              AscendEnvOptions opt = AscendEnvOptions{});

    const accel::DesignSpace &hwSpace() const override;
    std::unique_ptr<MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const override;
    double areaBudgetMm2() const override { return opt_.areaBudgetMm2; }
    std::string describeHw(const accel::HwPoint &h) const override;
    const accel::EvalCache *evalCache() const override
    {
        return opt_.cache;
    }
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
    std::string backendName() const override { return "ascend"; }
    std::string scenarioName() const override;
    std::uint64_t workloadDigest() const override;
    /** The hand-designed cube-core reference point of Fig. 11. */
    std::optional<accel::HwPoint> expertDefault() const override;

    /** The typed Ascend design space. */
    const accel::AscendDesignSpace &ascendSpace() const { return space_; }

    /** The cycle-level PPA engine. */
    const camodel::CycleAccurateModel &model() const { return model_; }

    /** The count-weighted layer set being co-optimized. */
    const std::vector<workload::WeightedOp> &layers() const
    {
        return layers_;
    }

  private:
    AscendEnvOptions opt_;
    accel::AscendDesignSpace space_;
    camodel::CycleAccurateModel model_;
    std::vector<workload::WeightedOp> layers_;
    std::vector<camodel::CubeMappingSpace> mapSpaces_;
};

} // namespace unico::core

#endif // UNICO_CORE_ASCEND_ENV_HH
