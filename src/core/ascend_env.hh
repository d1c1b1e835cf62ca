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

#include <memory>
#include <optional>
#include <vector>

#include "accel/ascend.hh"
#include "camodel/simulator.hh"
#include "core/layered_run.hh"
#include "workload/network.hh"

namespace unico::core {

/** Ascend-like co-search environment. */
class AscendEnv : public LayeredEnv
{
  public:
    /** Reads areaBudgetMm2, maxShapesPerNetwork, cache and
     *  surrogate. */
    AscendEnv(std::vector<workload::Network> networks,
              const BackendOptions &opt = {});

    const accel::DesignSpace &hwSpace() const override;
    std::unique_ptr<MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const override;
    double areaBudgetMm2() const override { return opt_.areaBudgetMm2; }
    std::string describeHw(const accel::HwPoint &h) const override;
    const accel::EvalCache *evalCache() const override
    {
        return opt_.cache;
    }
    std::string backendName() const override { return "ascend"; }
    std::string scenarioName() const override;
    /** The hand-designed cube-core reference point of Fig. 11. */
    std::optional<accel::HwPoint> expertDefault() const override;

    /** The typed Ascend design space. */
    const accel::AscendDesignSpace &ascendSpace() const { return space_; }

    /** The cycle-level PPA engine. */
    const camodel::CycleAccurateModel &model() const { return model_; }

  private:
    accel::AscendDesignSpace space_;
    camodel::CycleAccurateModel model_;
    std::vector<camodel::CubeMappingSpace> mapSpaces_;
};

} // namespace unico::core

#endif // UNICO_CORE_ASCEND_ENV_HH
