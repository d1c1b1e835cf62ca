/**
 * @file
 * Backend-agnostic multi-layer mapping run.
 *
 * Every platform binding (spatial + analytical model, Ascend-like +
 * cycle-level simulator, future backends) shares the same network-
 * level machinery: one budgeted mapping search per unique layer
 * shape, stepped round-robin; count-weighted PPA aggregation over
 * the per-layer incumbents; MACs-weighted sensitivity; and the
 * fidelity-degradation hook. LayeredMappingRun implements all of it
 * once, parameterized by a small LayeredRunPolicy that supplies the
 * per-layer search engine (whose evaluators charge virtual cost
 * through LayeredRunPolicy::charge()) and the area model — the only
 * parts that actually differ per platform.
 *
 * Determinism contract (shared by every backend): per-layer search
 * seeds derive from the run seed via one common::Rng draw per layer
 * in layer order, and each sweep steps every layer exactly once
 * before the network loss is recorded. Refactoring an env onto this
 * core must keep its trajectories bit-identical (covered by the
 * golden-CSV parity test).
 */

#ifndef UNICO_CORE_LAYERED_RUN_HH
#define UNICO_CORE_LAYERED_RUN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/backend.hh"
#include "mapping/engine.hh"
#include "workload/network.hh"

namespace unico::core {

/** Latency penalty (ms) for a layer with no feasible mapping yet. */
constexpr double kUnmappedLatencyMs = 1e7;

/**
 * The per-backend part of a multi-layer run: how to start one
 * layer's search (and charge its evaluations) and which area model
 * applies. Owned by the LayeredMappingRun it parameterizes.
 */
class LayeredRunPolicy
{
  public:
    virtual ~LayeredRunPolicy() = default;

    /**
     * Begin the budgeted mapping search for layer @p layer: any
     * mapping::SearchRun<Cand> of the backend's candidate type. The
     * seed is the layer's draw from the run-level seeder; evaluator
     * lambdas created here may capture `this` (the policy outlives
     * every layer search it starts).
     */
    virtual std::unique_ptr<mapping::SearchRunBase>
    startLayer(std::size_t layer, std::uint64_t seed) = 0;

    /** Silicon area (mm^2) of the hardware sample under search. */
    virtual double areaMm2() const = 0;

    /** Fidelity-degradation hook; see MappingRun::degradeToAnalytical. */
    virtual bool degradeToAnalytical() { return false; }

  protected:
    /**
     * Charge virtual evaluation cost to the owning run: the only way
     * a run is charged. Policies call it from the evaluators their
     * layer searches run; where the call sits relative to the
     * surrogate screen decides whether a screened-out candidate
     * costs anything.
     */
    void
    charge(double seconds)
    {
        *chargeSink_ += seconds;
    }

  private:
    friend class LayeredMappingRun;

    double *chargeSink_ = nullptr;
};

/**
 * Multi-layer mapping run shared by every backend: one budgeted
 * search per unique layer shape, stepped round-robin; the recorded
 * loss is the count-weighted network latency under the current
 * per-layer incumbents.
 */
class LayeredMappingRun final : public MappingRun
{
  public:
    /**
     * @param layers the count-weighted layer set (owned by the env;
     *        must outlive the run).
     * @param policy backend binding; the run takes ownership.
     * @param seed   run-level seed; per-layer seeds are drawn from it
     *        in layer order.
     */
    LayeredMappingRun(const std::vector<workload::WeightedOp> &layers,
                      std::unique_ptr<LayeredRunPolicy> policy,
                      std::uint64_t seed);

    void step(int sweeps) override;
    int spent() const override;
    accel::Ppa bestPpa() const override;
    const std::vector<double> &bestLossHistory() const override;
    double sensitivity(double alpha) const override;
    double chargedSeconds() const override;
    bool degradeToAnalytical() override;

  private:
    double networkLoss() const;

    const std::vector<workload::WeightedOp> &layers_;
    std::unique_ptr<LayeredRunPolicy> policy_;
    std::vector<std::unique_ptr<mapping::SearchRunBase>> runs_;
    std::vector<double> lossHistory_;
    std::size_t cursor_ = 0;
    double chargedSeconds_ = 0.0;
};

/**
 * Order-sensitive digest of a count-weighted layer set; stamped into
 * checkpoints so --resume can refuse a different workload stack.
 */
std::uint64_t
layersDigest(const std::vector<workload::WeightedOp> &layers);

/**
 * Base of the backend envs whose runs are LayeredMappingRuns: the
 * options the env was built with, the count-weighted layer set (the
 * dominant unique shapes of every network, in network order) and the
 * queries that depend on nothing else.
 */
class LayeredEnv : public CoSearchEnv
{
  public:
    surrogate::SurrogateStats surrogateStats() const override;
    /** Every SH round must seed each unique layer shape once. */
    int minSeedBudget() const override;
    std::uint64_t workloadDigest() const override;

    /** The count-weighted layer set being co-optimized. */
    const std::vector<workload::WeightedOp> &layers() const
    {
        return layers_;
    }

  protected:
    /** @p networks must not be empty. */
    LayeredEnv(const std::vector<workload::Network> &networks,
               const BackendOptions &opt);

    BackendOptions opt_;
    std::vector<workload::WeightedOp> layers_;
};

} // namespace unico::core

#endif // UNICO_CORE_LAYERED_RUN_HH
