#include "surrogate/learned_model.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

namespace unico::surrogate {

namespace {

/** Exact evaluations each per-layer screen observes before it starts
 *  screening, so the always-feasible first candidate of every engine
 *  is evaluated exactly. */
constexpr std::uint64_t kWarmup = 12;

/** Observations between two refits of a screen's model. */
constexpr int kRefitEvery = 8;

/** Ridge regularizer of a screen's refit solve. */
constexpr double kRidge = 1e-3;

/** Consecutive rejections after which a screened-out candidate is
 *  admitted anyway, so the training signal never starves even at
 *  tiny keep fractions. */
constexpr int kForceAdmitAfter = 32;

/** Recent predicted scores that define the keep-quantile admission
 *  threshold. */
constexpr std::size_t kScoreWindow = 64;

/** log2 of a positive count (0 for values <= 0). */
double
log2Count(std::int64_t v)
{
    return v > 0 ? std::log2(static_cast<double>(v)) : 0.0;
}

/** Natural log clamped away from -inf. */
double
logClamped(double v)
{
    return std::log(std::max(v, 1e-12));
}

/** log2 of a strictly positive ratio (clamped). */
double
log2Ratio(double num, double den)
{
    return std::log2(std::max(num, 1e-12) / std::max(den, 1e-12));
}

} // namespace

std::string
toString(const SurrogateStats &stats)
{
    std::ostringstream oss;
    oss << "surrogate: enabled=" << (stats.enabled ? 1 : 0)
        << " keep=" << stats.keep << " screens=" << stats.screens
        << " candidates=" << stats.candidates
        << " screened_out=" << stats.screenedOut
        << " admitted=" << stats.admitted
        << " forced_admits=" << stats.forcedAdmits
        << " observations=" << stats.observations
        << " refits=" << stats.refits
        << " screen_rate=" << stats.screenRate();
    return oss.str();
}

SurrogateStats
SurrogateSink::snapshot() const
{
    SurrogateStats s;
    s.screens = screens_.load(std::memory_order_relaxed);
    s.candidates = candidates_.load(std::memory_order_relaxed);
    s.screenedOut = screenedOut_.load(std::memory_order_relaxed);
    s.admitted = admitted_.load(std::memory_order_relaxed);
    s.forcedAdmits = forcedAdmits_.load(std::memory_order_relaxed);
    s.observations = observations_.load(std::memory_order_relaxed);
    s.refits = refits_.load(std::memory_order_relaxed);
    return s;
}

SurrogateStats
SurrogateContext::snapshot() const
{
    SurrogateStats s = sink.snapshot();
    s.enabled = options.enabled;
    s.keep = options.enabled ? options.keep : 1.0;
    return s;
}

// --- Online ridge model -------------------------------------------------

OnlineCostModel::OnlineCostModel(std::size_t dim, double ridge,
                                 int refit_every)
    : dim_(dim), ridge_(ridge), refitEvery_(std::max(refit_every, 1)),
      gram_(dim, dim, 0.0), rhs_(kNumHeads, linalg::Vector(dim, 0.0)),
      w_(kNumHeads, linalg::Vector(dim, 0.0))
{}

void
OnlineCostModel::observe(const linalg::Vector &features,
                         const std::array<double, kNumHeads> &targets)
{
    // GCC vector lanes, two pairs per step: the update is element-wise
    // (one multiply and one add per entry), so this gives the bits of
    // the scalar loop.
    typedef double Lanes __attribute__((vector_size(16)));
    constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(double);
    const auto load = [](const double *p) {
        Lanes v;
        std::memcpy(&v, p, sizeof(v));
        return v;
    };
    assert(features.size() == dim_);
    const double *f = features.data();
    for (std::size_t i = 0; i < dim_; ++i) {
        const double xi = f[i];
        if (xi == 0.0)
            continue;
        double *row = &gram_(i, 0);
        const Lanes x2 = {xi, xi};
        std::size_t j = 0;
        for (; j + 2 * kLanes <= i + 1; j += 2 * kLanes) {
            const Lanes lo = load(row + j) + x2 * load(f + j);
            const Lanes hi =
                load(row + j + kLanes) + x2 * load(f + j + kLanes);
            std::memcpy(row + j, &lo, sizeof(lo));
            std::memcpy(row + j + kLanes, &hi, sizeof(hi));
        }
        for (; j <= i; ++j)
            row[j] += xi * f[j];
        for (int h = 0; h < kNumHeads; ++h)
            rhs_[h][i] += xi * targets[h];
    }
    ++observations_;
    if (observations_ % static_cast<std::uint64_t>(refitEvery_) == 0)
        refit();
}

void
OnlineCostModel::refit()
{
    w_ = linalg::solveNormalEquations(gram_, rhs_, ridge_);
    ++refits_;
    fitted_ = true;
}

double
OnlineCostModel::predict(int head, const linalg::Vector &features) const
{
    assert(head >= 0 && head < kNumHeads);
    if (!fitted_)
        return 0.0;
    return linalg::dot(w_[head], features);
}

// --- Feature extraction -------------------------------------------------

std::array<double, kNumHeads>
extractTargets(const mapping::MappingEval &eval)
{
    return {logClamped(eval.loss), logClamped(eval.ppa.latencyMs),
            logClamped(eval.ppa.energyMj), eval.ppa.areaMm2};
}

linalg::Vector
extractSpatialFeatures(const workload::TensorOp &op,
                       const accel::SpatialHwConfig &hw,
                       const mapping::Mapping &m)
{
    linalg::Vector f;
    f.reserve(spatialFeatureDim());
    f.push_back(1.0); // bias
    double l1_vol = 1.0, l2_vol = 1.0;
    for (int d = 0; d < mapping::kNumDims; ++d) {
        f.push_back(log2Count(m.l1Tile[d]));
        l1_vol *= static_cast<double>(m.l1Tile[d]);
    }
    for (int d = 0; d < mapping::kNumDims; ++d) {
        f.push_back(log2Count(m.l2Tile[d]));
        l2_vol *= static_cast<double>(m.l2Tile[d]);
    }
    for (int d = 0; d < mapping::kNumDims; ++d)
        f.push_back(m.spatialX == d ? 1.0 : 0.0);
    for (int d = 0; d < mapping::kNumDims; ++d)
        f.push_back(m.spatialY == d ? 1.0 : 0.0);
    // Loop order as normalized positions: feature d = where dim d
    // sits in the temporal order (0 = outermost).
    std::array<double, mapping::kNumDims> pos{};
    for (int i = 0; i < mapping::kNumDims; ++i)
        pos[m.order[i]] =
            static_cast<double>(i) / (mapping::kNumDims - 1);
    for (int d = 0; d < mapping::kNumDims; ++d)
        f.push_back(pos[d]);
    // Hardware dimensions.
    f.push_back(log2Count(hw.peX));
    f.push_back(log2Count(hw.peY));
    f.push_back(log2Count(hw.l1Bytes));
    f.push_back(log2Count(hw.l2Bytes));
    f.push_back(log2Count(hw.nocBandwidth));
    f.push_back(hw.dataflow == accel::Dataflow::WeightStationary ? 1.0
                                                                 : 0.0);
    // Derived reuse/footprint ratios (2-byte elements).
    f.push_back(std::log2(std::max(l1_vol, 1.0)));
    f.push_back(std::log2(std::max(l2_vol, 1.0)));
    f.push_back(log2Ratio(l2_vol, l1_vol));
    f.push_back(log2Count(m.l2Tile[m.spatialX]));
    f.push_back(log2Count(m.l2Tile[m.spatialY]));
    f.push_back(std::log2(std::max(
        static_cast<double>(op.macs()), 1.0)));
    f.push_back(logClamped(op.arithmeticIntensity()));
    f.push_back(log2Ratio(2.0 * l1_vol, static_cast<double>(hw.l1Bytes)));
    f.push_back(log2Ratio(2.0 * l2_vol, static_cast<double>(hw.l2Bytes)));
    assert(f.size() == spatialFeatureDim());
    return f;
}

std::size_t
spatialFeatureDim()
{
    return 1 + 5 * mapping::kNumDims + 6 + 9;
}

linalg::Vector
extractCubeFeatures(const workload::TensorOp &op,
                    const accel::CubeHwConfig &hw,
                    const camodel::CubeMapping &m)
{
    const camodel::GemmShape shape = camodel::GemmShape::fromOp(op);
    linalg::Vector f;
    f.reserve(cubeFeatureDim());
    f.push_back(1.0); // bias
    f.push_back(log2Count(m.m1));
    f.push_back(log2Count(m.n1));
    f.push_back(log2Count(m.k1));
    f.push_back(log2Count(m.m0));
    f.push_back(log2Count(m.n0));
    f.push_back(log2Count(m.k0));
    f.push_back(m.doubleBufferA ? 1.0 : 0.0);
    f.push_back(m.doubleBufferB ? 1.0 : 0.0);
    f.push_back(m.fuseVector ? 1.0 : 0.0);
    f.push_back(log2Count(hw.l0aBytes));
    f.push_back(log2Count(hw.l0bBytes));
    f.push_back(log2Count(hw.l0cBytes));
    f.push_back(log2Count(hw.l1Bytes));
    f.push_back(log2Count(hw.ubBytes));
    f.push_back(log2Count(hw.cubeM));
    f.push_back(log2Count(hw.cubeN));
    f.push_back(log2Count(hw.cubeK));
    f.push_back(log2Count(shape.m));
    f.push_back(log2Count(shape.n));
    f.push_back(log2Count(shape.k));
    // Derived tile hierarchy and footprint ratios (2-byte inputs,
    // 4-byte accumulators).
    f.push_back(log2Ratio(static_cast<double>(m.m1),
                          static_cast<double>(m.m0)));
    f.push_back(log2Ratio(static_cast<double>(m.n1),
                          static_cast<double>(m.n0)));
    f.push_back(log2Ratio(static_cast<double>(m.k1),
                          static_cast<double>(m.k0)));
    const double db_a = m.doubleBufferA ? 2.0 : 1.0;
    const double db_b = m.doubleBufferB ? 2.0 : 1.0;
    f.push_back(log2Ratio(2.0 * db_a * static_cast<double>(m.m0 * m.k0),
                          static_cast<double>(hw.l0aBytes)));
    f.push_back(log2Ratio(2.0 * db_b * static_cast<double>(m.k0 * m.n0),
                          static_cast<double>(hw.l0bBytes)));
    f.push_back(log2Ratio(4.0 * static_cast<double>(m.m0 * m.n0),
                          static_cast<double>(hw.l0cBytes)));
    f.push_back(log2Ratio(
        2.0 * static_cast<double>(m.m1 * m.k1 + m.k1 * m.n1),
        static_cast<double>(hw.l1Bytes)));
    f.push_back(std::log2(std::max(
        static_cast<double>(shape.m) * static_cast<double>(shape.n) *
            static_cast<double>(shape.k),
        1.0)));
    assert(f.size() == cubeFeatureDim());
    return f;
}

std::size_t
cubeFeatureDim()
{
    return 1 + 6 + 3 + 8 + 3 + 3 + 3 + 1 + 1;
}

// --- Admission policy + screens -----------------------------------------

namespace {

/**
 * Per-layer screen over one backend's candidate type @p Cand, given
 * as a feature extractor bound to the layer's op and hardware.
 *
 * Deterministic keep-quantile admission over a sliding window of
 * recent predicted scores. No RNG: the decision for candidate i is a
 * pure function of the screen's observation/decision history.
 */
template <typename Cand>
class LayerScreen final : public mapping::CandidateScreen<Cand>
{
  public:
    using Features = std::function<linalg::Vector(const Cand &)>;

    LayerScreen(SurrogateContext *ctx, std::size_t dim, Features features)
        : ctx_(ctx), keep_(ctx->options.keep), features_(std::move(features)),
          model_(dim, kRidge, kRefitEvery)
    {
        ctx_->sink.noteScreen();
    }

    /** The predicted eval when @p c is screened out, else nullopt. */
    std::optional<mapping::MappingEval>
    screen(const Cand &c) override
    {
        // Warmup and an untrained model always admit; so does
        // keep >= 1 (the byte-identical screening-on/no-op mode).
        if (model_.observations() < kWarmup || !model_.ready() ||
            keep_ >= 1.0) {
            note(true, false);
            return std::nullopt;
        }
        linalg::Vector f = features_(c);
        const double predicted_log_loss = model_.predict(kHeadLogLoss, f);
        const bool admit = admitByQuantile(predicted_log_loss);
        const bool forced = !admit && sinceAdmit_ >= kForceAdmitAfter;
        pushScore(predicted_log_loss);
        if (admit || forced) {
            note(true, forced);
            // screeningEvaluator trains on this candidate next.
            admittedCand_ = c;
            admittedFeatures_ = std::move(f);
            return std::nullopt;
        }
        note(false, false);
        return predictedEval(f, predicted_log_loss);
    }

    /** Train on one exact evaluation. */
    void
    observeExact(const Cand &c, const mapping::MappingEval &eval) override
    {
        const std::uint64_t refits_before = model_.refits();
        // Features are a pure function of the candidate, so those
        // screen() computed for an equal candidate are these.
        if (!admittedCand_ || !(*admittedCand_ == c))
            admittedFeatures_ = features_(c);
        admittedCand_.reset();
        model_.observe(admittedFeatures_, extractTargets(eval));
        ctx_->sink.noteObservation();
        if (model_.refits() != refits_before)
            ctx_->sink.noteRefit();
    }

  private:
    void
    note(bool admitted, bool forced)
    {
        if (admitted)
            sinceAdmit_ = 0;
        else
            ++sinceAdmit_;
        ctx_->sink.noteDecision(admitted, forced);
    }

    /** True when @p score ranks inside the keep fraction of the
     *  recent-score window (always true while the window is small). */
    bool
    admitByQuantile(double score) const
    {
        if (window_.size() < 8)
            return true;
        std::size_t rank = 0;
        for (const double s : window_) {
            if (s < score)
                ++rank;
        }
        const double threshold = keep_ * static_cast<double>(window_.size());
        return static_cast<double>(rank) < threshold;
    }

    void
    pushScore(double score)
    {
        window_.push_back(score);
        while (window_.size() > kScoreWindow)
            window_.pop_front();
    }

    mapping::MappingEval
    predictedEval(const linalg::Vector &f, double predicted_log_loss) const
    {
        mapping::MappingEval eval;
        eval.fidelity = mapping::Fidelity::Surrogate;
        eval.loss = std::exp(predicted_log_loss);
        eval.ppa.latencyMs = std::exp(model_.predict(kHeadLogLatency, f));
        eval.ppa.energyMj = std::exp(model_.predict(kHeadLogEnergy, f));
        eval.ppa.areaMm2 = model_.predict(kHeadArea, f);
        eval.ppa.powerMw = eval.ppa.latencyMs > 0.0
                               ? eval.ppa.energyMj / eval.ppa.latencyMs *
                                     1e3
                               : 0.0;
        eval.ppa.feasible = eval.loss < 1e11;
        return eval;
    }

    SurrogateContext *ctx_;
    double keep_;
    Features features_;
    OnlineCostModel model_;
    int sinceAdmit_ = 0;
    std::deque<double> window_;
    /** The last candidate screen() admitted, and its features. */
    std::optional<Cand> admittedCand_;
    linalg::Vector admittedFeatures_;
};

/** A LayerScreen, or nullptr when screening is off. */
template <typename Cand>
std::unique_ptr<mapping::CandidateScreen<Cand>>
makeScreen(SurrogateContext *ctx, std::size_t dim,
           typename LayerScreen<Cand>::Features features)
{
    if (ctx == nullptr || !ctx->options.enabled)
        return nullptr;
    return std::make_unique<LayerScreen<Cand>>(ctx, dim, std::move(features));
}

} // namespace

std::unique_ptr<mapping::CandidateScreen<mapping::Mapping>>
makeSpatialScreen(SurrogateContext *ctx, const workload::TensorOp &op,
                  const accel::SpatialHwConfig &hw)
{
    return makeScreen<mapping::Mapping>(
        ctx, spatialFeatureDim(), [op, hw](const mapping::Mapping &m) {
            return extractSpatialFeatures(op, hw, m);
        });
}

std::unique_ptr<mapping::CandidateScreen<camodel::CubeMapping>>
makeCubeScreen(SurrogateContext *ctx, const workload::TensorOp &op,
               const accel::CubeHwConfig &hw)
{
    return makeScreen<camodel::CubeMapping>(
        ctx, cubeFeatureDim(), [op, hw](const camodel::CubeMapping &m) {
            return extractCubeFeatures(op, hw, m);
        });
}

} // namespace unico::surrogate
