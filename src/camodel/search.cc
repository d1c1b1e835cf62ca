#include "camodel/search.hh"

namespace unico::camodel {

CubeSearchRun::CubeSearchRun(const CubeMappingSpace &space,
                             mapping::Evaluator<CubeMapping> evaluator,
                             std::uint64_t seed)
    : space_(space), evaluator_(std::move(evaluator)), rng_(seed)
{
}

void
CubeSearchRun::track(const CubeMapping &m, const mapping::MappingEval &eval)
{
    // A screened-out (advisory) candidate advances the restart
    // counter like a fruitless exact one, so a screened-heavy stretch
    // can trigger the depth-first backtrack too.
    if (record(m, eval))
        sinceImprove_ = 0;
    else
        ++sinceImprove_;
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
            track(current_, currentEval_);
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
        track(cand, eval);
        // Greedy descent with mild tolerance for sideways moves.
        if (eval.loss <= currentEval_.loss * 1.02) {
            current_ = cand;
            currentEval_ = eval;
        }
    }
}

} // namespace unico::camodel
