#include "core/spatial_env.hh"

namespace unico::core {

namespace {

/**
 * Spatial backend binding for the shared layered run: per-layer
 * searches come from the FlexTensor/GAMMA-style engines over the
 * analytical model, and every evaluation an engine asks for charges
 * the model's fixed nominal seconds, also when the surrogate screens
 * the candidate out (the charge sits above the screen). The model is
 * queried directly, with no evaluation cache: a prepared query costs
 * about 100 ns, and a search repeats too few of them for the key
 * hashing and entry inserts of a cache to pay off.
 */
class SpatialRunPolicy final : public LayeredRunPolicy
{
  public:
    SpatialRunPolicy(const std::vector<workload::WeightedOp> &layers,
                     const std::vector<mapping::MappingSpace> &spaces,
                     const costmodel::AnalyticalCostModel &model,
                     accel::SpatialHwConfig hw,
                     mapping::EngineKind engine,
                     surrogate::SurrogateContext *surrogate)
        : layers_(layers), spaces_(spaces), model_(model), hw_(hw),
          engine_(engine), surrogate_(surrogate),
          screens_(layers.size()), preps_(layers.size())
    {
    }

    std::unique_ptr<mapping::SearchRunBase>
    startLayer(std::size_t layer, std::uint64_t seed) override
    {
        const workload::TensorOp &op = layers_[layer].op;
        // Candidate-invariant query context, built once per layer and
        // amortized over every mapping candidate (and reused when
        // successive halving re-steps this layer).
        if (preps_[layer] == nullptr)
            preps_[layer] =
                std::make_unique<costmodel::PreparedSpatialQuery>(
                    model_.prepare(op, hw_));
        const costmodel::PreparedSpatialQuery &prep = *preps_[layer];
        constexpr double kSeconds =
            costmodel::AnalyticalCostModel::nominalEvalSeconds();
        // Layering: charge -> screen -> model. One screen per layer,
        // trained only on this run's exact evals (makes fleet and
        // threaded runs byte-identical).
        auto evaluator = [this, &prep](const mapping::Mapping &m) {
            return mapping::latencyEval(model_.evaluate(prep, m), kSeconds);
        };
        if (screens_[layer] == nullptr)
            screens_[layer] =
                surrogate::makeSpatialScreen(surrogate_, op, hw_);
        return mapping::startSearch(
            engine_, spaces_[layer],
            [this, screened = mapping::screeningEvaluator(
                       screens_[layer].get(), std::move(evaluator))](
                const mapping::Mapping &m) {
                charge(kSeconds);
                return screened(m);
            },
            seed);
    }

    double areaMm2() const override { return model_.areaMm2(hw_); }

  private:
    const std::vector<workload::WeightedOp> &layers_;
    const std::vector<mapping::MappingSpace> &spaces_;
    const costmodel::AnalyticalCostModel &model_;
    accel::SpatialHwConfig hw_;
    mapping::EngineKind engine_;
    surrogate::SurrogateContext *surrogate_;
    std::vector<std::unique_ptr<mapping::CandidateScreen<mapping::Mapping>>>
        screens_;
    std::vector<std::unique_ptr<costmodel::PreparedSpatialQuery>> preps_;
};

} // namespace

SpatialEnv::SpatialEnv(std::vector<workload::Network> networks,
                       const BackendOptions &opt)
    : LayeredEnv(networks, opt), space_(opt.scenario)
{
    mapSpaces_.reserve(layers_.size());
    for (const auto &wop : layers_)
        mapSpaces_.emplace_back(wop.op);
}

const accel::DesignSpace &
SpatialEnv::hwSpace() const
{
    return space_.space();
}

std::unique_ptr<MappingRun>
SpatialEnv::createRun(const accel::HwPoint &h, std::uint64_t seed) const
{
    return std::make_unique<LayeredMappingRun>(
        layers_,
        std::make_unique<SpatialRunPolicy>(layers_, mapSpaces_, model_,
                                           space_.decode(h), opt_.engine,
                                           opt_.surrogate),
        seed);
}

double
SpatialEnv::powerBudgetMw() const
{
    return accel::powerBudgetMw(opt_.scenario);
}

std::string
SpatialEnv::describeHw(const accel::HwPoint &h) const
{
    return space_.decode(h).describe();
}

std::string
SpatialEnv::scenarioName() const
{
    return toString(opt_.scenario);
}

} // namespace unico::core
