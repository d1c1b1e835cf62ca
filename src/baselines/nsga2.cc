#include "baselines/nsga2.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/eval_clock.hh"
#include "common/rng.hh"
#include "moo/pareto.hh"

namespace unico::baselines {

using core::CoSearchResult;
using core::HwEvalRecord;

namespace {

/** Chance that a child is the crossover of its two parents, and that
 *  it is then mutated to a neighbor. */
constexpr double kCrossoverProb = 0.9;
constexpr double kMutationProb = 0.4;

struct Individual
{
    accel::HwPoint hw;
    moo::Objectives y;      ///< (lat, pow, area), penalized
    std::size_t recordIdx;  ///< index into result.records
    int rank = 0;
    double crowding = 0.0;
};

moo::Objectives
penaltyObjectives()
{
    return {1e6, 1e5, 1e3};
}

/** Evaluate one individual: full-budget SW search + constraints. */
Individual
evaluate(core::CoSearchEnv &env, const accel::HwPoint &hw, int budget,
         std::uint64_t seed, int iteration, CoSearchResult &result,
         double &task_seconds)
{
    auto run = env.createRun(hw, seed);
    run->step(budget);
    task_seconds = run->chargedSeconds();

    HwEvalRecord rec;
    rec.hw = hw;
    rec.ppa = run->bestPpa();
    rec.budgetSpent = run->spent();
    rec.iteration = iteration;
    rec.constraintOk = rec.ppa.feasible &&
                       rec.ppa.powerMw <= env.powerBudgetMw() &&
                       rec.ppa.areaMm2 <= env.areaBudgetMm2();

    Individual ind;
    ind.hw = hw;
    if (rec.ppa.feasible) {
        ind.y = {rec.ppa.latencyMs, rec.ppa.powerMw, rec.ppa.areaMm2};
        // Constraint violation: heavily penalize but keep gradient.
        if (!rec.constraintOk)
            for (auto &v : ind.y)
                v *= 10.0;
    } else {
        ind.y = penaltyObjectives();
    }
    ind.recordIdx = result.records.size();
    result.records.push_back(rec);
    if (rec.constraintOk) {
        result.front.insert(
            {rec.ppa.latencyMs, rec.ppa.powerMw, rec.ppa.areaMm2},
            ind.recordIdx);
    }
    return ind;
}

/** Assign ranks and crowding to a population in place. */
void
rankPopulation(std::vector<Individual> &pop)
{
    std::vector<moo::Objectives> points;
    points.reserve(pop.size());
    for (const auto &ind : pop)
        points.push_back(ind.y);
    const auto fronts = moo::nonDominatedSort(points);
    for (std::size_t r = 0; r < fronts.size(); ++r) {
        const auto crowd = moo::crowdingDistance(points, fronts[r]);
        for (std::size_t i = 0; i < fronts[r].size(); ++i) {
            pop[fronts[r][i]].rank = static_cast<int>(r);
            pop[fronts[r][i]].crowding = crowd[i];
        }
    }
}

/** Binary tournament by (rank, crowding). */
const Individual &
tournament(const std::vector<Individual> &pop, common::Rng &rng)
{
    const Individual &a = pop[rng.uniformInt(pop.size())];
    const Individual &b = pop[rng.uniformInt(pop.size())];
    if (a.rank != b.rank)
        return a.rank < b.rank ? a : b;
    return a.crowding >= b.crowding ? a : b;
}

} // namespace

CoSearchResult
runNsga2(core::CoSearchEnv &env, const Nsga2Config &cfg)
{
    assert(cfg.population >= 2);
    Nsga2Config cfg_local = cfg;
    cfg_local.swBudget = std::max(cfg.swBudget, env.minSeedBudget());
    common::Rng rng(cfg.seed);
    common::EvalClock clock(cfg.workers);
    CoSearchResult result;
    const accel::DesignSpace &space = env.hwSpace();

    // Initial population.
    std::vector<Individual> pop;
    {
        std::vector<double> tasks;
        for (int i = 0; i < cfg.population; ++i) {
            double seconds = 0.0;
            pop.push_back(evaluate(env, space.randomPoint(rng),
                                   cfg_local.swBudget, rng.next(), 0, result,
                                   seconds));
            tasks.push_back(seconds);
        }
        clock.chargeParallel(tasks);
    }
    rankPopulation(pop);
    result.trace.push_back(
        core::TracePoint{clock.hours(), result.front.points()});

    for (int gen = 1; gen <= cfg.generations; ++gen) {
        // Offspring generation.
        std::vector<Individual> offspring;
        std::vector<double> tasks;
        for (int i = 0; i < cfg.population; ++i) {
            const Individual &pa = tournament(pop, rng);
            const Individual &pb = tournament(pop, rng);
            accel::HwPoint child =
                rng.bernoulli(kCrossoverProb)
                    ? space.crossover(pa.hw, pb.hw, rng)
                    : pa.hw;
            if (rng.bernoulli(kMutationProb))
                child = space.neighbor(child, rng, 2);
            double seconds = 0.0;
            offspring.push_back(evaluate(env, child, cfg_local.swBudget,
                                         rng.next(), gen, result,
                                         seconds));
            tasks.push_back(seconds);
        }
        clock.chargeParallel(tasks);

        // (mu + lambda) environmental selection.
        std::vector<Individual> merged = std::move(pop);
        merged.insert(merged.end(), offspring.begin(), offspring.end());
        rankPopulation(merged);
        std::sort(merged.begin(), merged.end(),
                  [](const Individual &a, const Individual &b) {
                      if (a.rank != b.rank)
                          return a.rank < b.rank;
                      return a.crowding > b.crowding;
                  });
        merged.resize(static_cast<std::size_t>(cfg.population));
        pop = std::move(merged);

        result.trace.push_back(
            core::TracePoint{clock.hours(), result.front.points()});
    }

    result.totalHours = clock.hours();
    result.evaluations = 0;
    for (const auto &rec : result.records)
        result.evaluations += static_cast<std::uint64_t>(rec.budgetSpent);
    return result;
}

} // namespace unico::baselines
