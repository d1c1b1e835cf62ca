/**
 * @file
 * Software-mapping search engine interface.
 *
 * A mature mapping optimizer (Sec. 2.1) exposes a budgeted,
 * resumable, monotonically-improving search. SearchRun models one
 * in-progress search for a fixed (workload, hardware) pair:
 * successive halving grants additional budget to surviving runs by
 * calling step() again, and the recorded histories feed both the
 * AUC promotion criterion of the modified successive halving and the
 * robustness metric R. The run and screen types are generic over the
 * candidate type (spatial Mapping, cube CubeMapping), so every
 * backend shares one bookkeeping and screening path.
 */

#ifndef UNICO_MAPPING_ENGINE_HH
#define UNICO_MAPPING_ENGINE_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "accel/ppa.hh"
#include "common/rng.hh"
#include "mapping/mapping.hh"

namespace unico::mapping {

/**
 * Provenance of a MappingEval. Exact evaluations are the sole source
 * of truth: surrogate-fidelity evals may steer an engine's internal
 * state but never become the incumbent, enter samples(), improve the
 * best-loss history, or reach checkpoints / Pareto fronts / CSVs.
 */
enum class Fidelity : std::uint8_t {
    Exact,     ///< produced by the real cost model (cached or not)
    Surrogate, ///< predicted by the learned screen; advisory only
};

/** Result of evaluating one mapping candidate (of any backend). */
struct MappingEval
{
    accel::Ppa ppa;     ///< PPA estimate (may be infeasible)
    double loss = 1e18; ///< scalar mapping-search objective
    Fidelity fidelity = Fidelity::Exact; ///< provenance tag
    /** Nominal EvalClock seconds of the exact query behind this
     *  eval; a cache hit replays the value stored at miss time. */
    double seconds = 0.0;
};

/** Exact eval whose loss is the latency (1e12 when infeasible), the
 *  mapping-search objective of every backend. */
inline MappingEval
latencyEval(const accel::Ppa &ppa, double seconds)
{
    MappingEval eval;
    eval.ppa = ppa;
    eval.loss = ppa.feasible ? ppa.latencyMs : 1e12;
    eval.seconds = seconds;
    return eval;
}

/** PPA estimation callback: candidate -> evaluation. */
template <typename Cand>
using Evaluator = std::function<MappingEval(const Cand &)>;

/** Spatial-template evaluator. */
using MappingEvaluator = Evaluator<Mapping>;

/**
 * Evaluate @p cand through @p cache: the memoization path of the
 * cycle-level (ascend) backend. The key is evalCacheKey(@p context,
 * fingerprint of @p cand); a miss runs @p compute() (which returns
 * the exact eval, its nominal seconds included) and stores it; a hit
 * returns that eval bit for bit, so search trajectories and the
 * virtual-cost ledger do not depend on cache state. A null @p cache
 * just runs @p compute().
 */
template <typename Cand, typename Compute>
MappingEval
cachedEvaluate(accel::EvalCache *cache, const common::Fingerprint &context,
               const Cand &cand, Compute &&compute)
{
    if (cache == nullptr)
        return compute();
    const common::Fingerprint key =
        accel::evalCacheKey(context, cand.fingerprint());
    if (const auto hit = cache->get(key))
        return MappingEval{hit->ppa, hit->loss, Fidelity::Exact,
                           hit->seconds};
    const MappingEval eval = compute();
    cache->put(key, accel::CachedEval{eval.ppa, eval.loss, eval.seconds});
    return eval;
}

/**
 * Candidate pre-screen backed by a learned cost model.
 *
 * Declared here as an abstract interface so the mapping library needs
 * no dependency on the surrogate library that implements it (the
 * surrogate depends on mapping, not vice versa).
 */
template <typename Cand>
class CandidateScreen
{
  public:
    virtual ~CandidateScreen() = default;

    /**
     * Decide whether @p c should skip exact evaluation. Returns a
     * surrogate-fidelity prediction to screen the candidate out, or
     * std::nullopt to admit it to the exact evaluator.
     */
    virtual std::optional<MappingEval> screen(const Cand &c) = 0;

    /** Feed one exact evaluation back as training signal. */
    virtual void observeExact(const Cand &c, const MappingEval &eval) = 0;
};

/**
 * Wrap @p inner with learned-model pre-screening.
 *
 * Sits *above* the cache: a screened-out candidate never touches the
 * cache or the exact model, so it is never charged by what @p inner
 * charges. It still spends one unit of search budget, and a backend
 * that charges above the screen (spatial) charges it whether or not
 * the candidate was screened out. Admitted candidates flow through
 * unchanged and their exact results train the screen.
 * @p screen == nullptr returns @p inner unchanged (the byte-identical
 * default-off path).
 */
template <typename Cand>
Evaluator<Cand>
screeningEvaluator(CandidateScreen<Cand> *screen,
                   std::type_identity_t<Evaluator<Cand>> inner)
{
    if (screen == nullptr)
        return inner;
    return [screen, inner = std::move(inner)](const Cand &c) {
        if (auto predicted = screen->screen(c)) {
            assert(predicted->fidelity == Fidelity::Surrogate);
            return *predicted;
        }
        const MappingEval eval = inner(c);
        screen->observeExact(c, eval);
        return eval;
    };
}

/** One raw evaluated sample, retained for the robustness metric. */
struct SamplePoint
{
    double loss;
    double latencyMs;
    double powerMw;
    bool feasible;
};

/**
 * A resumable search in progress, seen independently of its
 * candidate type: what successive halving and the layered run read.
 *
 * Invariants: bestLossHistory() has one entry per spent evaluation
 * and is monotonically non-increasing; bestEval() corresponds to
 * bestLossHistory().back().
 */
class SearchRunBase
{
  public:
    virtual ~SearchRunBase() = default;

    /** Spend @p evals more evaluations of search budget. */
    virtual void step(int evals) = 0;

    /** Total evaluations spent so far. */
    int spent() const { return static_cast<int>(bestLoss_.size()); }

    /** Evaluation of the best candidate. */
    const MappingEval &bestEval() const { return bestEval_; }

    /** Best-so-far loss after each evaluation (monotone). */
    const std::vector<double> &bestLossHistory() const { return bestLoss_; }

    /** Every raw sample seen (for the R metric's percentile point). */
    const std::vector<SamplePoint> &samples() const { return samples_; }

  protected:
    /**
     * Record one evaluation's budget, sample and incumbent
     * bookkeeping. Returns true when @p eval became the incumbent.
     */
    bool
    recordEval(const MappingEval &eval)
    {
        if (eval.fidelity == Fidelity::Surrogate) {
            // A screened-out candidate spends budget and may steer
            // the engine's internal state via the returned eval, but
            // its predicted numbers are advisory: no sample, no
            // incumbent update, best-so-far carried forward.
            bestLoss_.push_back(bestLoss_.empty() ? 1e18
                                                  : bestLoss_.back());
            return false;
        }
        samples_.push_back(SamplePoint{eval.loss, eval.ppa.latencyMs,
                                       eval.ppa.powerMw,
                                       eval.ppa.feasible});
        const bool improved =
            bestLoss_.empty() || eval.loss < bestEval_.loss;
        if (improved)
            bestEval_ = eval;
        bestLoss_.push_back(bestEval_.loss);
        return improved;
    }

  private:
    MappingEval bestEval_;
    std::vector<double> bestLoss_;
    std::vector<SamplePoint> samples_;
};

/** A resumable search over candidates of type @p Cand. */
template <typename Cand>
class SearchRun : public SearchRunBase
{
  public:
    /** Best candidate found so far. */
    const Cand &best() const { return best_; }

  protected:
    /** recordEval() that also keeps the incumbent candidate. */
    bool
    record(const Cand &c, const MappingEval &eval)
    {
        if (!recordEval(eval))
            return false;
        best_ = c;
        return true;
    }

  private:
    Cand best_;
};

/** Available search-engine families. */
enum class EngineKind {
    Random,    ///< uniform random sampling
    Annealing, ///< FlexTensor-style simulated annealing
    Genetic,   ///< GAMMA-style steady-state genetic search
};

/** Human-readable engine name. */
const char *toString(EngineKind kind);

/**
 * Start a resumable mapping search of the given family.
 *
 * @param kind engine family
 * @param space mapping space of the target operator
 * @param evaluator PPA estimation callback
 * @param seed deterministic seed for this run
 */
std::unique_ptr<SearchRun<Mapping>> startSearch(EngineKind kind,
                                                const MappingSpace &space,
                                                MappingEvaluator evaluator,
                                                std::uint64_t seed);

} // namespace unico::mapping

#endif // UNICO_MAPPING_ENGINE_HH
