#include "core/mobo.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "moo/scalarize.hh"

namespace unico::core {

namespace {

/** Candidates per slot: uniform random points, then mutants of the
 *  elite. */
constexpr std::size_t kCandidatePool = 192;
constexpr std::size_t kEliteMutants = 48;
/** Subset-of-data cap of the GP's training window. */
constexpr std::size_t kMaxGpPoints = 256;
/** The saved kernel state's "kind": the checkpoint format's tag of
 *  the Matérn-5/2 kernel (the retired squared exponential was 0). */
constexpr int kMatern52Kind = 1;

} // namespace

MoboHwSampler::MoboHwSampler(const accel::DesignSpace &space,
                             std::size_t num_objectives,
                             std::uint64_t seed, MoboConfig cfg)
    : space_(space),
      numObjectives_(num_objectives),
      cfg_(cfg),
      rng_(seed)
{
    assert(num_objectives > 0);
    std::uint64_t points = 1;
    for (std::size_t d = 0; d < space_.dims(); ++d) {
        const std::uint64_t values = space_.axis(d).values.size();
        if (points > std::numeric_limits<std::uint64_t>::max() / values)
            throw std::invalid_argument(
                "MOBO sampler: the design space has 2^64 or more points");
        stride_.push_back(points);
        points *= values;
    }
}

std::uint64_t
MoboHwSampler::code(std::span<const std::size_t> p) const
{
    assert(p.size() == stride_.size());
    std::uint64_t c = 0;
    for (std::size_t d = 0; d < p.size(); ++d)
        c += p[d] * stride_[d];
    return c;
}

void
MoboHwSampler::observe(const accel::HwPoint &h, const moo::Objectives &y,
                       bool high_fidelity)
{
    assert(y.size() == numObjectives_);
    Obs obs;
    obs.h = h;
    obs.x = space_.normalize(h);
    obs.y = y;
    obs.highFidelity = high_fidelity;
    all_.push_back(std::move(obs));
    seen_.emplace(code(h), 0);

    if (ideal_.empty()) {
        ideal_ = y;
        nadir_ = y;
    } else {
        for (std::size_t i = 0; i < y.size(); ++i) {
            ideal_[i] = std::min(ideal_[i], y[i]);
            nadir_[i] = std::max(nadir_[i], y[i]);
        }
    }
}

void
MoboHwSampler::setHighFidelity(std::size_t index, bool high_fidelity)
{
    assert(index < all_.size());
    all_[index].highFidelity = high_fidelity;
}

std::size_t
MoboHwSampler::highFidelityCount() const
{
    std::size_t count = 0;
    for (const auto &obs : all_)
        if (obs.highFidelity)
            ++count;
    return count;
}

moo::Objectives
MoboHwSampler::normalize(const moo::Objectives &y) const
{
    if (ideal_.empty())
        return moo::Objectives(y.size(), 0.0);
    return moo::normalizeObjectives(y, ideal_, nadir_);
}

struct MoboHwSampler::BatchModel
{
    explicit BatchModel(const surrogate::KernelParams &params) : gp(params)
    {}

    std::vector<const Obs *> hf;       ///< high-fidelity observations
    std::vector<std::vector<double>> x; ///< their design vectors
    surrogate::GaussianProcess gp;
    bool fitted = false; ///< gp holds this batch's factor
    common::FlatIndex batch; ///< code() of the batch's points so far
    /** One slot's candidates, reused by every slot: the pool's
     *  points (dims() per row), the codes scored so far, and the
     *  normalized rows of the scored ones with their pool rows. */
    std::vector<std::size_t> pool;
    common::FlatIndex scored;
    std::vector<double> xs;
    std::vector<std::size_t> cands;
};

accel::HwPoint
MoboHwSampler::proposeOne(BatchModel &model)
{
    const auto &hf = model.hf;
    if (hf.size() < 4) {
        // Cold start: explore randomly.
        return space_.randomPoint(rng_);
    }

    // ParEGO: scalarize the high-fidelity targets under a fresh
    // random weight vector, then fit a single-output GP.
    const auto w = moo::randomSimplexWeights(numObjectives_, rng_);
    std::vector<double> s;
    s.reserve(hf.size());
    for (const Obs *obs : hf)
        s.push_back(moo::parego(normalize(obs->y), w));

    // Only the first model-guided slot of a batch factorizes: the
    // later ones share its inputs and kernel, so retargeting gives the
    // fit they would compute anew. Whether a factor succeeds depends
    // on those two alone (the hyperparameter search fails only when
    // its first factor, at kernelParams_, does), so retargeting a
    // failed factor keeps it untrained, as a refit would.
    surrogate::GaussianProcess &gp = model.gp;
    if (model.fitted) {
        gp.retarget(s);
    } else if (!kernelTuned_) {
        gp.fitWithHyperopt(model.x, s, kMaxGpPoints, cfg_.gpThreads);
        if (gp.trained()) {
            kernelParams_ = gp.params();
            kernelTuned_ = true;
        }
    } else {
        gp.fit(model.x, s, kMaxGpPoints);
    }
    model.fitted = true;
    // Graceful degradation: a failed fit (Cholesky jitter ladder
    // exhausted on an ill-conditioned kernel matrix) or a non-finite
    // posterior (NaN targets) falls back to space-filling proposal
    // for this slot instead of aborting the whole trial.
    if (!gp.trained() ||
        !std::isfinite(gp.logMarginalLikelihood())) {
        ++gpFallbacks_;
        return space_.randomPoint(rng_);
    }
    const double incumbent = *std::min_element(s.begin(), s.end());

    // Candidate pool: uniform random plus mutations of the elite,
    // drawn in that order into the batch's point buffer.
    const std::size_t dims = space_.dims();
    const std::size_t pool_size = kCandidatePool + kEliteMutants;
    model.pool.resize(pool_size * dims);
    const auto point = [&](std::size_t k) {
        return std::span<std::size_t>(model.pool.data() + k * dims, dims);
    };
    for (std::size_t k = 0; k < kCandidatePool; ++k)
        space_.randomPoint(rng_, point(k));
    const auto order = [&] {
        std::vector<std::size_t> idx(hf.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::sort(idx.begin(), idx.end(),
                  [&](std::size_t a, std::size_t b) { return s[a] < s[b]; });
        return idx;
    }();
    const std::size_t elites = std::min<std::size_t>(8, order.size());
    for (std::size_t i = 0; i < kEliteMutants; ++i) {
        const Obs *elite = hf[order[i % elites]];
        space_.neighbor(elite->h, rng_, 2, point(kCandidatePool + i));
    }

    // Expected-improvement maximization over the pool, skipping
    // configurations already evaluated or already in this batch.
    // Duplicate pool entries are scored once: the strict '>' argmax
    // means a repeat could never win anyway, so dropping it saves a
    // GP prediction without changing the proposal.
    model.scored.clear();
    model.cands.clear();
    model.xs.resize(pool_size * dims);
    for (std::size_t k = 0; k < pool_size; ++k) {
        const std::uint64_t c = code(point(k));
        if (model.batch.contains(c) || seen_.contains(c))
            continue;
        if (!model.scored.emplace(c, 0).second)
            continue;
        space_.normalize(point(k),
                         std::span<double>(
                             model.xs.data() + model.cands.size() * dims,
                             dims));
        model.cands.push_back(k);
    }
    const std::size_t best = gp.argmaxExpectedImprovement(
        model.xs.data(), model.cands.size(), incumbent);
    if (best == model.cands.size())
        return space_.randomPoint(rng_);
    const auto winner = point(model.cands[best]);
    return accel::HwPoint(winner.begin(), winner.end());
}

std::vector<accel::HwPoint>
MoboHwSampler::sampleBatch(std::size_t n)
{
    // No observation arrives inside a batch, so the training set is
    // gathered once for all of its slots.
    BatchModel model(kernelParams_);
    for (const auto &obs : all_) {
        if (obs.highFidelity) {
            model.hf.push_back(&obs);
            model.x.push_back(obs.x);
        }
    }
    std::vector<accel::HwPoint> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        accel::HwPoint h = rng_.bernoulli(cfg_.randomFraction)
                               ? space_.randomPoint(rng_)
                               : proposeOne(model);
        // Retry a few times to keep the batch diverse; accept
        // duplicates only as a last resort (tiny spaces).
        for (int attempt = 0; attempt < 16 && model.batch.contains(code(h));
             ++attempt)
            h = space_.randomPoint(rng_);
        model.batch.emplace(code(h), 0);
        batch.push_back(std::move(h));
    }
    return batch;
}

common::Json
MoboHwSampler::saveState() const
{
    common::Json state = common::Json::object();

    common::Json rng = common::Json::array();
    const auto rs = rng_.saveState();
    for (int i = 0; i < 4; ++i)
        rng.push(common::hexU64(rs.s[i]));
    state["rng"] = std::move(rng);
    state["rngHasGaussian"] = rs.hasCachedGaussian;
    state["rngGaussian"] = rs.cachedGaussian;

    state["kernelTuned"] = kernelTuned_;
    // "kind" and "ard" keep the checkpoint format: the kernel is
    // always the Matérn-5/2 (kind 1) with one shared lengthscale.
    common::Json kernel = common::Json::object();
    kernel["kind"] = kMatern52Kind;
    kernel["lengthscale"] = kernelParams_.lengthscale;
    kernel["variance"] = kernelParams_.variance;
    kernel["noise"] = kernelParams_.noise;
    kernel["ard"] = common::Json::array();
    state["kernel"] = std::move(kernel);

    common::Json obs = common::Json::array();
    for (const auto &o : all_) {
        common::Json entry = common::Json::object();
        common::Json h = common::Json::array();
        for (std::size_t axis : o.h)
            h.push(axis);
        entry["h"] = std::move(h);
        common::Json y = common::Json::array();
        for (double v : o.y)
            y.push(v);
        entry["y"] = std::move(y);
        entry["hf"] = o.highFidelity;
        obs.push(std::move(entry));
    }
    state["observations"] = std::move(obs);
    return state;
}

void
MoboHwSampler::writeState(common::JsonWriter &w,
                          common::JsonArrayCache &observations) const
{
    // saveState()'s members in key order, as its Json objects print
    // them.
    const auto rs = rng_.saveState();
    w.beginObject();
    w.key("kernel").beginObject();
    w.key("ard").beginArray().endArray();
    w.key("kind").number(kMatern52Kind);
    w.key("lengthscale").number(kernelParams_.lengthscale);
    w.key("noise").number(kernelParams_.noise);
    w.key("variance").number(kernelParams_.variance);
    w.endObject();
    w.key("kernelTuned").boolean(kernelTuned_);
    w.key("observations").cachedArray(
        observations, all_.size(),
        [this](common::JsonWriter &e, std::size_t i) {
            const Obs &o = all_[i];
            e.beginObject();
            e.key("h").beginArray();
            for (std::size_t axis : o.h)
                e.number(static_cast<double>(axis));
            e.endArray();
            e.key("hf").boolean(o.highFidelity);
            e.key("y").beginArray();
            for (double v : o.y)
                e.number(v);
            e.endArray();
            e.endObject();
        });
    w.key("rng").beginArray();
    for (int i = 0; i < 4; ++i)
        w.string(common::hexU64(rs.s[i]));
    w.endArray();
    w.key("rngGaussian").number(rs.cachedGaussian);
    w.key("rngHasGaussian").boolean(rs.hasCachedGaussian);
    w.endObject();
}

void
MoboHwSampler::restoreState(const common::Json &state)
{
    // Read and check the whole snapshot before changing anything. A
    // checkpoint's CRC trailer shows the file is intact, not that its
    // fields fit this sampler, and observe(), normalize() and the GP
    // index by those fields.
    const auto fail = [](const std::string &what) {
        throw std::runtime_error("sampler state: " + what);
    };
    std::vector<Obs> entries;
    const common::Json &obs = state.at("observations");
    for (std::size_t i = 0; i < obs.size(); ++i) {
        const common::Json &entry = obs.at(i);
        Obs e;
        const common::Json &hj = entry.at("h");
        for (std::size_t a = 0; a < hj.size(); ++a)
            e.h.push_back(static_cast<std::size_t>(hj.at(a).asInt()));
        if (!space_.contains(e.h))
            fail("observation " + std::to_string(i) +
                 ": 'h' is not a point of the design space");
        const common::Json &yj = entry.at("y");
        for (std::size_t a = 0; a < yj.size(); ++a)
            e.y.push_back(yj.at(a).asDouble());
        if (e.y.size() != numObjectives_)
            fail("observation " + std::to_string(i) + ": 'y' has " +
                 std::to_string(e.y.size()) + " objectives, not " +
                 std::to_string(numObjectives_));
        e.highFidelity = entry.at("hf").asBool();
        entries.push_back(std::move(e));
    }

    common::Rng::State rs;
    const common::Json &rng = state.at("rng");
    for (int i = 0; i < 4; ++i)
        rs.s[i] = common::parseHexU64(rng.at(i).asString());
    rs.hasCachedGaussian = state.at("rngHasGaussian").asBool();
    rs.cachedGaussian = state.at("rngGaussian").asDouble();

    const bool tuned = state.at("kernelTuned").asBool();
    const common::Json &kernel = state.at("kernel");
    surrogate::KernelParams params;
    const std::int64_t kind = kernel.at("kind").asInt();
    if (kind != kMatern52Kind)
        fail("unknown kernel kind " + std::to_string(kind));
    params.lengthscale = kernel.at("lengthscale").asDouble();
    params.variance = kernel.at("variance").asDouble();
    params.noise = kernel.at("noise").asDouble();
    if (!(std::isfinite(params.lengthscale) && params.lengthscale > 0.0))
        fail("kernel lengthscale must be finite and positive");
    if (!(std::isfinite(params.variance) && params.variance > 0.0))
        fail("kernel variance must be finite and positive");
    if (!(std::isfinite(params.noise) && params.noise >= 0.0))
        fail("kernel noise must be finite and non-negative");
    const common::Json &ard = kernel.at("ard");
    if (!ard.isArray() || ard.size() != 0)
        fail("kernel 'ard' must be an empty array: the kernel has one "
             "shared lengthscale");

    // Replaying observe() rebuilds every derived field (normalized
    // embeddings, dedup keys, running ideal/nadir) exactly.
    all_.clear();
    seen_.clear();
    ideal_.clear();
    nadir_.clear();
    for (const Obs &e : entries)
        observe(e.h, e.y, e.highFidelity);
    rng_.restoreState(rs);
    kernelTuned_ = tuned;
    kernelParams_ = std::move(params);
}

} // namespace unico::core
