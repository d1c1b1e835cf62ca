#include "camodel/search.hh"

#include <cassert>

namespace unico::camodel {

CubeEvaluator
screeningEvaluator(CubeCandidateScreen *screen, CubeEvaluator inner)
{
    if (screen == nullptr)
        return inner;
    return [screen, inner = std::move(inner)](const CubeMapping &m) {
        if (auto predicted = screen->screen(m)) {
            assert(predicted->fidelity == mapping::Fidelity::Surrogate);
            return *predicted;
        }
        const mapping::MappingEval eval = inner(m);
        screen->observeExact(m, eval);
        return eval;
    };
}

CubeSearchRun::CubeSearchRun(const CubeMappingSpace &space,
                             CubeEvaluator evaluator, std::uint64_t seed)
    : space_(space), evaluator_(std::move(evaluator)), rng_(seed)
{
}

void
CubeSearchRun::record(const CubeMapping &m,
                      const mapping::MappingEval &eval)
{
    if (eval.fidelity == mapping::Fidelity::Surrogate) {
        // Advisory prediction: spend the budget slot, keep the
        // incumbent and sample set untouched. The restart counter
        // still advances so a screened-heavy stretch can trigger the
        // depth-first backtrack just like a fruitless exact stretch.
        ++sinceImprove_;
        bestLoss_.push_back(bestLoss_.empty() ? 1e18 : bestLoss_.back());
        return;
    }
    samples_.push_back(mapping::SamplePoint{
        eval.loss, eval.ppa.latencyMs, eval.ppa.powerMw,
        eval.ppa.feasible});
    if (bestLoss_.empty() || eval.loss < bestEval_.loss) {
        bestEval_ = eval;
        bestMapping_ = m;
        sinceImprove_ = 0;
    } else {
        ++sinceImprove_;
    }
    bestLoss_.push_back(bestEval_.loss);
}

void
CubeSearchRun::step(int evals)
{
    for (int i = 0; i < evals; ++i) {
        if (!initialized_) {
            // Conservative fusion-friendly seed: modest tiles that fit
            // any reasonable buffer configuration, ping-pong on. The
            // depth-first refinement grows tiles from here.
            current_ = CubeMapping{};
            current_.m1 = 64;
            current_.n1 = 128;
            current_.k1 = 64;
            current_.m0 = 16;
            current_.n0 = 32;
            current_.k0 = 16;
            current_.doubleBufferA = true;
            current_.doubleBufferB = true;
            current_.fuseVector = true;
            space_.repair(current_);
            currentEval_ = evaluator_(current_);
            record(current_, currentEval_);
            initialized_ = true;
            continue;
        }
        CubeMapping cand;
        if (sinceImprove_ >= 24) {
            // Branch exhausted: depth-first backtrack via restart.
            cand = space_.random(rng_);
            sinceImprove_ = 0;
        } else {
            cand = space_.mutate(current_, rng_);
        }
        const mapping::MappingEval eval = evaluator_(cand);
        record(cand, eval);
        // Greedy descent with mild tolerance for sideways moves.
        if (eval.loss <= currentEval_.loss * 1.02) {
            current_ = cand;
            currentEval_ = eval;
        }
    }
}

} // namespace unico::camodel
