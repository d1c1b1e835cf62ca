#include "core/ascend_env.hh"

#include <charconv>

#include "camodel/search.hh"

namespace unico::core {

namespace {

/**
 * Ascend backend binding for the shared layered run: per-layer
 * searches are depth-first buffer-fusion sweeps over the cycle-level
 * simulator, whose virtual cost is evaluation-dependent — the policy
 * charges it below the screen, so a screened-out candidate is free.
 */
class AscendRunPolicy final : public LayeredRunPolicy
{
  public:
    AscendRunPolicy(const std::vector<workload::WeightedOp> &layers,
                    const std::vector<camodel::CubeMappingSpace> &spaces,
                    const camodel::CycleAccurateModel &model,
                    accel::CubeHwConfig hw, accel::EvalCache *cache,
                    surrogate::SurrogateContext *surrogate)
        : layers_(layers), spaces_(spaces), model_(model), hw_(hw),
          cache_(cache), surrogate_(surrogate), screens_(layers.size()),
          preps_(layers.size()), degradedPreps_(layers.size())
    {
    }

    std::unique_ptr<mapping::SearchRunBase>
    startLayer(std::size_t layer, std::uint64_t seed) override
    {
        const workload::TensorOp &op = layers_[layer].op;
        // Candidate-invariant query contexts, one per rung (the
        // degraded rung's coarser tech yields a distinct context
        // fingerprint, so the rungs never share cache entries).
        // Built lazily per layer and amortized over every candidate;
        // the degraded rung's context is only built once a run
        // actually degrades.
        if (preps_[layer] == nullptr)
            preps_[layer] = std::make_unique<camodel::PreparedCubeQuery>(
                model_.prepare(op, hw_));
        auto evaluator = [this, layer, &op](const camodel::CubeMapping &m) {
            // Degradation ladder: the cycle-level model is the
            // default; after repeated faults the supervisor drops
            // this run onto the coarse (analytical-fidelity) rung
            // which charges analytical-scale virtual cost. The rung's
            // context must exist before it keys the cache.
            if (degraded_ && degradedPreps_[layer] == nullptr)
                degradedPreps_[layer] =
                    std::make_unique<camodel::PreparedCubeQuery>(
                        degradedModel_.prepare(op, hw_));
            const camodel::CycleAccurateModel &engine =
                degraded_ ? degradedModel_ : model_;
            const camodel::PreparedCubeQuery &prep =
                degraded_ ? *degradedPreps_[layer] : *preps_[layer];
            // Below the fault layer: FaultyRun decorates the
            // MappingRun, so only clean results reach the cache. A
            // hit replays the seconds charged at miss time.
            const mapping::MappingEval eval =
                mapping::cachedEvaluate(cache_, prep.context, m, [&] {
                    camodel::SimStats stats;
                    const accel::Ppa ppa = engine.evaluate(prep, m, &stats);
                    return mapping::latencyEval(
                        ppa, degraded_ ? camodel::CycleAccurateModel::
                                             nominalDegradedEvalSeconds()
                                       : engine.nominalEvalSeconds(stats));
                });
            charge(eval.seconds);
            return eval;
        };
        // Screening sits above the evaluator (and thus above the
        // cache + charge()): screened-out candidates cost no virtual
        // seconds and never touch the cache. One screen per layer,
        // trained run-locally on whatever exact rung is active.
        if (screens_[layer] == nullptr)
            screens_[layer] = surrogate::makeCubeScreen(surrogate_, op, hw_);
        return std::make_unique<camodel::CubeSearchRun>(
            spaces_[layer],
            mapping::screeningEvaluator(screens_[layer].get(),
                                        std::move(evaluator)),
            seed);
    }

    double areaMm2() const override { return model_.areaMm2(hw_); }

    bool
    degradeToAnalytical() override
    {
        if (degraded_)
            return false;
        degradedModel_ = model_.degraded();
        degraded_ = true;
        return true;
    }

  private:
    const std::vector<workload::WeightedOp> &layers_;
    const std::vector<camodel::CubeMappingSpace> &spaces_;
    const camodel::CycleAccurateModel &model_;
    camodel::CycleAccurateModel degradedModel_;
    accel::CubeHwConfig hw_;
    accel::EvalCache *cache_ = nullptr;
    surrogate::SurrogateContext *surrogate_ = nullptr;
    std::vector<
        std::unique_ptr<mapping::CandidateScreen<camodel::CubeMapping>>>
        screens_;
    std::vector<std::unique_ptr<camodel::PreparedCubeQuery>> preps_;
    std::vector<std::unique_ptr<camodel::PreparedCubeQuery>> degradedPreps_;
    bool degraded_ = false;
};

} // namespace

AscendEnv::AscendEnv(std::vector<workload::Network> networks,
                     const BackendOptions &opt)
    : LayeredEnv(networks, opt)
{
    mapSpaces_.reserve(layers_.size());
    for (const auto &wop : layers_)
        mapSpaces_.emplace_back(wop.op);
}

const accel::DesignSpace &
AscendEnv::hwSpace() const
{
    return space_.space();
}

std::unique_ptr<MappingRun>
AscendEnv::createRun(const accel::HwPoint &h, std::uint64_t seed) const
{
    return std::make_unique<LayeredMappingRun>(
        layers_,
        std::make_unique<AscendRunPolicy>(layers_, mapSpaces_, model_,
                                          space_.decode(h), opt_.cache,
                                          opt_.surrogate),
        seed);
}

std::string
AscendEnv::describeHw(const accel::HwPoint &h) const
{
    return space_.decode(h).describe();
}

std::string
AscendEnv::scenarioName() const
{
    // The Ascend scenario is the edge-device area envelope, in its
    // shortest round-trip form: budgets that differ in any digit name
    // different scenarios, and the default still prints "area200".
    char digits[32];
    char *end =
        std::to_chars(digits, digits + sizeof digits, opt_.areaBudgetMm2)
            .ptr;
    return "area" + std::string(digits, end);
}

std::optional<accel::HwPoint>
AscendEnv::expertDefault() const
{
    return space_.encodeDefault();
}

} // namespace unico::core
