#include "mapping/engine.hh"

#include <algorithm>
#include <cmath>

namespace unico::mapping {

const char *
toString(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Random: return "random";
      case EngineKind::Annealing: return "annealing";
      case EngineKind::Genetic: return "genetic";
    }
    return "?";
}

namespace {

/** Uniform random sampling baseline. */
class RandomRun : public SearchRun<Mapping>
{
  public:
    RandomRun(const MappingSpace &space, MappingEvaluator evaluator,
              std::uint64_t seed)
        : space_(space), evaluator_(std::move(evaluator)), rng_(seed)
    {}

    void
    step(int evals) override
    {
        for (int i = 0; i < evals; ++i) {
            // First sample is the always-feasible minimal mapping so
            // every run owns at least one valid candidate.
            const Mapping m = spent() == 0 ? space_.minimal()
                                           : space_.random(rng_);
            record(m, evaluator_(m));
        }
    }

  private:
    const MappingSpace &space_;
    MappingEvaluator evaluator_;
    common::Rng rng_;
};

/**
 * FlexTensor-style annealing with an exploration prologue: the first
 * sample is the always-feasible minimal mapping, the next few are
 * uniform random probes (covering large-tile candidates the ladder
 * walk would take long to reach), after which the annealer descends
 * from the best probe with temperature-controlled acceptance and
 * occasional restarts.
 */
class AnnealingRun : public SearchRun<Mapping>
{
  public:
    AnnealingRun(const MappingSpace &space, MappingEvaluator evaluator,
                 std::uint64_t seed)
        : space_(space), evaluator_(std::move(evaluator)), rng_(seed)
    {}

    void
    step(int evals) override
    {
        for (int i = 0; i < evals; ++i) {
            if (spent() == 0) {
                // Guaranteed-feasible anchor.
                const Mapping m = space_.minimal();
                record(m, evaluator_(m));
                continue;
            }
            if (spent() < kExplore) {
                const Mapping m = space_.random(rng_);
                record(m, evaluator_(m));
                if (spent() == kExplore) {
                    current_ = best();
                    currentEval_ = bestEval();
                }
                continue;
            }
            Mapping cand;
            if (rng_.bernoulli(restartProb_)) {
                cand = space_.random(rng_);
            } else {
                cand = space_.mutate(current_, rng_);
                // A second mutation half the time widens the move set.
                if (rng_.bernoulli(0.5))
                    cand = space_.mutate(cand, rng_);
            }
            const MappingEval eval = evaluator_(cand);
            record(cand, eval);
            const double denom =
                std::max(std::abs(currentEval_.loss), 1e-12);
            const double delta = (eval.loss - currentEval_.loss) / denom;
            if (delta <= 0.0 ||
                rng_.bernoulli(std::exp(-delta / temperature_))) {
                current_ = cand;
                currentEval_ = eval;
            }
            temperature_ = std::max(temperature_ * cooling_, minTemp_);
        }
    }

  private:
    static constexpr int kExplore = 13;

    const MappingSpace &space_;
    MappingEvaluator evaluator_;
    common::Rng rng_;
    Mapping current_;
    MappingEval currentEval_;
    double temperature_ = 0.5;
    static constexpr double cooling_ = 0.985;
    static constexpr double minTemp_ = 0.01;
    static constexpr double restartProb_ = 0.03;
};

/**
 * GAMMA-style steady-state genetic search: maintain a small
 * population; each evaluation produces one child by tournament
 * selection + crossover + mutation, replacing the current worst.
 */
class GeneticRun : public SearchRun<Mapping>
{
  public:
    GeneticRun(const MappingSpace &space, MappingEvaluator evaluator,
               std::uint64_t seed)
        : space_(space), evaluator_(std::move(evaluator)), rng_(seed)
    {}

    void
    step(int evals) override
    {
        for (int i = 0; i < evals; ++i) {
            if (population_.size() < kPopulation) {
                // Seed the population with the minimal mapping first
                // (always feasible), then random diversity.
                const Mapping m = population_.empty()
                                      ? space_.minimal()
                                      : space_.random(rng_);
                const MappingEval eval = evaluator_(m);
                record(m, eval);
                population_.push_back({m, eval.loss});
                continue;
            }
            const Member &pa = tournament();
            const Member &pb = tournament();
            Mapping child = space_.crossover(pa.mapping, pb.mapping, rng_);
            if (rng_.bernoulli(kMutationProb))
                child = space_.mutate(child, rng_);
            const MappingEval eval = evaluator_(child);
            record(child, eval);
            auto worst = std::max_element(
                population_.begin(), population_.end(),
                [](const Member &a, const Member &b) {
                    return a.loss < b.loss;
                });
            if (eval.loss < worst->loss)
                *worst = {child, eval.loss};
        }
    }

  private:
    struct Member
    {
        Mapping mapping;
        double loss;
    };

    const Member &
    tournament()
    {
        const Member &a = population_[rng_.uniformInt(population_.size())];
        const Member &b = population_[rng_.uniformInt(population_.size())];
        return a.loss <= b.loss ? a : b;
    }

    static constexpr std::size_t kPopulation = 16;
    static constexpr double kMutationProb = 0.7;

    const MappingSpace &space_;
    MappingEvaluator evaluator_;
    common::Rng rng_;
    std::vector<Member> population_;
};

} // namespace

std::unique_ptr<SearchRun<Mapping>>
startSearch(EngineKind kind, const MappingSpace &space,
            MappingEvaluator evaluator, std::uint64_t seed)
{
    switch (kind) {
      case EngineKind::Random:
        return std::make_unique<RandomRun>(space, std::move(evaluator),
                                           seed);
      case EngineKind::Annealing:
        return std::make_unique<AnnealingRun>(space, std::move(evaluator),
                                              seed);
      case EngineKind::Genetic:
        return std::make_unique<GeneticRun>(space, std::move(evaluator),
                                            seed);
    }
    return nullptr;
}

} // namespace unico::mapping
