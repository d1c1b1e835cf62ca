#include "core/layered_run.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.hh"
#include "common/shard_cache.hh"
#include "core/robustness.hh"

namespace unico::core {

LayeredMappingRun::LayeredMappingRun(
    const std::vector<workload::WeightedOp> &layers,
    std::unique_ptr<LayeredRunPolicy> policy, std::uint64_t seed)
    : layers_(layers), policy_(std::move(policy))
{
    policy_->chargeSink_ = &chargedSeconds_;
    common::Rng seeder(seed);
    runs_.reserve(layers_.size());
    for (std::size_t l = 0; l < layers_.size(); ++l)
        runs_.push_back(policy_->startLayer(l, seeder.next()));
}

void
LayeredMappingRun::step(int sweeps)
{
    // One budget unit is a *sweep*: one mapping evaluation per unique
    // layer (the paper's budget b counts per-operator search steps).
    for (int i = 0; i < sweeps; ++i) {
        ++cursor_;
        for (auto &run : runs_)
            run->step(1);
        lossHistory_.push_back(networkLoss());
    }
}

int
LayeredMappingRun::spent() const
{
    return static_cast<int>(cursor_);
}

accel::Ppa
LayeredMappingRun::bestPpa() const
{
    double latency = 0.0;
    double energy = 0.0;
    for (std::size_t l = 0; l < runs_.size(); ++l) {
        const auto &eval = runs_[l]->bestEval();
        if (runs_[l]->spent() == 0 || !eval.ppa.feasible)
            return accel::Ppa::infeasible();
        const double count = static_cast<double>(layers_[l].count);
        latency += count * eval.ppa.latencyMs;
        energy += count * eval.ppa.energyMj;
    }
    // A degenerate aggregate (zero or non-finite latency) has no
    // meaningful power figure; report infeasible instead of a
    // latency=0 / power=0 point that would dominate the whole front.
    if (!(latency > 0.0) || !std::isfinite(latency))
        return accel::Ppa::infeasible();
    accel::Ppa ppa;
    ppa.latencyMs = latency;
    ppa.energyMj = energy;
    // mJ / ms == W; report mW.
    ppa.powerMw = energy / latency * 1000.0;
    ppa.areaMm2 = policy_->areaMm2();
    ppa.feasible = true;
    return ppa;
}

const std::vector<double> &
LayeredMappingRun::bestLossHistory() const
{
    return lossHistory_;
}

double
LayeredMappingRun::sensitivity(double alpha) const
{
    // Count*MACs-weighted mean of per-layer sensitivities: every
    // layer's mapping landscape contributes in proportion to its
    // share of network execution.
    double total_w = 0.0;
    double acc = 0.0;
    for (std::size_t l = 0; l < runs_.size(); ++l) {
        const double w = static_cast<double>(layers_[l].count) *
                         static_cast<double>(layers_[l].op.macs());
        acc += w * computeSensitivity(runs_[l]->samples(), alpha);
        total_w += w;
    }
    return total_w > 0.0 ? acc / total_w : 0.0;
}

double
LayeredMappingRun::chargedSeconds() const
{
    return chargedSeconds_;
}

bool
LayeredMappingRun::degradeToAnalytical()
{
    return policy_->degradeToAnalytical();
}

double
LayeredMappingRun::networkLoss() const
{
    double total = 0.0;
    for (std::size_t l = 0; l < runs_.size(); ++l) {
        const double count = static_cast<double>(layers_[l].count);
        if (runs_[l]->spent() == 0) {
            total += count * kUnmappedLatencyMs;
        } else {
            total += count * std::min(runs_[l]->bestLossHistory().back(),
                                      kUnmappedLatencyMs);
        }
    }
    return total;
}

std::uint64_t
layersDigest(const std::vector<workload::WeightedOp> &layers)
{
    common::FingerprintBuilder fb;
    fb.add(static_cast<std::uint64_t>(layers.size()));
    for (const auto &wop : layers) {
        fb.add(wop.op.fingerprint());
        fb.add(wop.count);
    }
    const common::Fingerprint fp = fb.fingerprint();
    return fp.hi ^ fp.lo;
}

namespace {

std::vector<workload::WeightedOp>
dominantLayers(const std::vector<workload::Network> &networks,
               std::size_t maxShapesPerNetwork)
{
    assert(!networks.empty());
    std::vector<workload::WeightedOp> layers;
    for (const auto &net : networks)
        for (auto &wop : net.dominantOps(maxShapesPerNetwork))
            layers.push_back(std::move(wop));
    return layers;
}

} // namespace

LayeredEnv::LayeredEnv(const std::vector<workload::Network> &networks,
                       const BackendOptions &opt)
    : opt_(opt), layers_(dominantLayers(networks, opt.maxShapesPerNetwork))
{
}

surrogate::SurrogateStats
LayeredEnv::surrogateStats() const
{
    return opt_.surrogate != nullptr ? opt_.surrogate->snapshot()
                                     : surrogate::SurrogateStats{};
}

int
LayeredEnv::minSeedBudget() const
{
    return std::max<int>(1, static_cast<int>(layers_.size()));
}

std::uint64_t
LayeredEnv::workloadDigest() const
{
    return layersDigest(layers_);
}

} // namespace unico::core
