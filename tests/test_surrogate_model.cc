/**
 * @file
 * Tests for the learned surrogate fast-path: deterministic feature
 * extraction, bit-stable ridge refits, the keep = 1.0 byte-identity
 * contract, screening engagement at small keep fractions, the
 * fidelity-tag guard that keeps surrogate predictions out of
 * incumbents, samples, Pareto fronts and result CSVs, CRC-64 pins of
 * the refit weights and of screened search outputs, and screened
 * searches that match across thread counts and fleet workers.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "camodel/cube_mapping.hh"
#include "camodel/search.hh"
#include "camodel/simulator.hh"
#include "common/crc64.hh"
#include "common/rng.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "core/fleet.hh"
#include "core/report.hh"
#include "core/spatial_env.hh"
#include "costmodel/analytical.hh"
#include "surrogate/learned_model.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;
using core::SpatialEnv;
using core::BackendOptions;
using surrogate::OnlineCostModel;
using surrogate::SurrogateContext;

namespace {

workload::TensorOp
convOp()
{
    return workload::TensorOp::conv("c", 64, 32, 28, 28, 3, 3);
}

accel::SpatialHwConfig
spatialHw()
{
    accel::SpatialHwConfig hw;
    hw.peX = hw.peY = 8;
    hw.l1Bytes = 16 * 1024;
    hw.l2Bytes = 512 * 1024;
    hw.nocBandwidth = 128;
    return hw;
}

/** Deterministic synthetic corpus over the spatial feature space. */
std::vector<linalg::Vector>
spatialCorpus(int n, std::uint64_t seed)
{
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(seed);
    std::vector<linalg::Vector> rows;
    rows.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        rows.push_back(
            surrogate::extractSpatialFeatures(op, hw, space.random(rng)));
    return rows;
}

std::array<double, surrogate::kNumHeads>
syntheticTargets(const linalg::Vector &x)
{
    // Fixed linear functions of a few feature coordinates, so the
    // ridge solve has an exactly representable optimum.
    std::array<double, surrogate::kNumHeads> t{};
    for (int h = 0; h < surrogate::kNumHeads; ++h) {
        double acc = 0.5 * (h + 1);
        for (std::size_t j = 0; j < x.size(); ++j)
            acc += ((j + h) % 3 == 0 ? 0.25 : -0.125) * x[j];
        t[static_cast<std::size_t>(h)] = acc;
    }
    return t;
}

DriverConfig
tinyConfig()
{
    DriverConfig cfg = DriverConfig::unico();
    cfg.batchSize = 6;
    cfg.maxIter = 2;
    cfg.sh.bMax = 64;
    cfg.minBudgetPerRound = 4;
    cfg.workers = 2;
    cfg.seed = 21;
    return cfg;
}

CoSearchResult
runSpatial(SurrogateContext *ctx)
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.surrogate = ctx;
    SpatialEnv env({workload::makeMobileNet()}, opt);
    CoOptimizer driver(env, tinyConfig());
    CoSearchResult result = driver.run();
    result.surrogateStats = env.surrogateStats();
    return result;
}

/** Bit-exact equality of every trajectory-visible field. */
void
expectIdenticalResults(const CoSearchResult &a, const CoSearchResult &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const auto &ra = a.records[i];
        const auto &rb = b.records[i];
        EXPECT_EQ(ra.hw, rb.hw) << "record " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.ppa.latencyMs),
                  std::bit_cast<std::uint64_t>(rb.ppa.latencyMs))
            << "record " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.ppa.powerMw),
                  std::bit_cast<std::uint64_t>(rb.ppa.powerMw))
            << "record " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.ppa.areaMm2),
                  std::bit_cast<std::uint64_t>(rb.ppa.areaMm2))
            << "record " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.sensitivity),
                  std::bit_cast<std::uint64_t>(rb.sensitivity))
            << "record " << i;
        EXPECT_EQ(ra.budgetSpent, rb.budgetSpent) << "record " << i;
        EXPECT_EQ(ra.constraintOk, rb.constraintOk) << "record " << i;
        EXPECT_EQ(ra.fullySearched, rb.fullySearched) << "record " << i;
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.trace[i].hours),
                  std::bit_cast<std::uint64_t>(b.trace[i].hours))
            << "trace " << i;
        EXPECT_EQ(a.trace[i].front, b.trace[i].front) << "trace " << i;
    }
    EXPECT_EQ(a.front.entries().size(), b.front.entries().size());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.totalHours),
              std::bit_cast<std::uint64_t>(b.totalHours));
    EXPECT_EQ(a.evaluations, b.evaluations);
}

std::size_t
csvDataRows(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::size_t rows = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++rows;
    return rows > 0 ? rows - 1 : 0; // minus header
}

} // namespace

TEST(SurrogateModel, SpatialFeaturesDeterministic)
{
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(3);
    for (int i = 0; i < 16; ++i) {
        const mapping::Mapping m = space.random(rng);
        const auto a = surrogate::extractSpatialFeatures(op, hw, m);
        const auto b = surrogate::extractSpatialFeatures(op, hw, m);
        ASSERT_EQ(a.size(), surrogate::spatialFeatureDim());
        for (std::size_t j = 0; j < a.size(); ++j) {
            ASSERT_TRUE(std::isfinite(a[j])) << "dim " << j;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a[j]),
                      std::bit_cast<std::uint64_t>(b[j]))
                << "dim " << j;
        }
    }
}

TEST(SurrogateModel, CubeFeaturesDeterministic)
{
    const auto op = workload::TensorOp::gemm("g", 256, 256, 256);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(5);
    for (int i = 0; i < 16; ++i) {
        const camodel::CubeMapping m = space.random(rng);
        const auto a = surrogate::extractCubeFeatures(op, hw, m);
        const auto b = surrogate::extractCubeFeatures(op, hw, m);
        ASSERT_EQ(a.size(), surrogate::cubeFeatureDim());
        for (std::size_t j = 0; j < a.size(); ++j) {
            ASSERT_TRUE(std::isfinite(a[j])) << "dim " << j;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a[j]),
                      std::bit_cast<std::uint64_t>(b[j]))
                << "dim " << j;
        }
    }
}

TEST(SurrogateModel, RidgeRefitBitStable)
{
    // Same corpus, same order => bit-identical weights. This is the
    // determinism the screening byte-identity contract rests on.
    const auto corpus = spatialCorpus(48, 11);
    OnlineCostModel m1(surrogate::spatialFeatureDim(), 1e-3, 8);
    OnlineCostModel m2(surrogate::spatialFeatureDim(), 1e-3, 8);
    for (const auto &x : corpus) {
        const auto t = syntheticTargets(x);
        m1.observe(x, t);
        m2.observe(x, t);
    }
    ASSERT_TRUE(m1.ready());
    EXPECT_EQ(m1.observations(), 48u);
    EXPECT_EQ(m1.refits(), m2.refits());
    EXPECT_GE(m1.refits(), 6u);
    for (int h = 0; h < surrogate::kNumHeads; ++h) {
        const auto &wa = m1.weights(h);
        const auto &wb = m2.weights(h);
        ASSERT_EQ(wa.size(), wb.size());
        for (std::size_t j = 0; j < wa.size(); ++j)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(wa[j]),
                      std::bit_cast<std::uint64_t>(wb[j]))
                << "head " << h << " dim " << j;
    }
    // Predictions on unseen points are bit-identical too.
    for (const auto &x : spatialCorpus(8, 99))
        for (int h = 0; h < surrogate::kNumHeads; ++h)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(m1.predict(h, x)),
                      std::bit_cast<std::uint64_t>(m2.predict(h, x)));
}

TEST(SurrogateModel, VectorGramUpdateMatchesScalarAccumulation)
{
    // observe() updates the Gram lower triangle two lanes at a time.
    // The update is element-wise, so after any corpus the weights must
    // equal a refit of the scalar rank-1 accumulation, bit for bit, for
    // the spatial and the cube feature sizes (zero features included).
    common::Rng rng(67);
    for (const std::size_t dim :
         {surrogate::spatialFeatureDim(), surrogate::cubeFeatureDim(),
          std::size_t{1}, std::size_t{6}}) {
        constexpr int kSamples = 64;
        OnlineCostModel model(dim, 1e-3, kSamples);
        linalg::Matrix gram(dim, dim, 0.0);
        std::vector<linalg::Vector> rhs(surrogate::kNumHeads,
                                        linalg::Vector(dim, 0.0));
        for (int s = 0; s < kSamples; ++s) {
            linalg::Vector x(dim);
            for (double &v : x)
                v = rng.uniform() < 0.25 ? 0.0 : 4.0 * rng.gaussian();
            std::array<double, surrogate::kNumHeads> t{};
            for (double &v : t)
                v = rng.gaussian();
            model.observe(x, t);
            for (std::size_t i = 0; i < dim; ++i) {
                if (x[i] == 0.0)
                    continue;
                for (std::size_t j = 0; j <= i; ++j)
                    gram(i, j) += x[i] * x[j];
                for (int h = 0; h < surrogate::kNumHeads; ++h)
                    rhs[h][i] += x[i] * t[h];
            }
        }
        ASSERT_EQ(model.refits(), 1u);
        const auto want = linalg::solveNormalEquations(gram, rhs, 1e-3);
        for (int h = 0; h < surrogate::kNumHeads; ++h)
            for (std::size_t j = 0; j < dim; ++j)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(model.weights(h)[j]),
                          std::bit_cast<std::uint64_t>(want[h][j]))
                    << "dim " << dim << " head " << h << " entry " << j;
    }
}

TEST(SurrogateModel, RidgeRecoversLinearTargets)
{
    const auto corpus = spatialCorpus(192, 23);
    OnlineCostModel model(surrogate::spatialFeatureDim(), 1e-6, 16);
    for (const auto &x : corpus)
        model.observe(x, syntheticTargets(x));
    ASSERT_TRUE(model.ready());
    for (const auto &x : spatialCorpus(16, 7)) {
        const auto t = syntheticTargets(x);
        for (int h = 0; h < surrogate::kNumHeads; ++h)
            EXPECT_NEAR(model.predict(h, x),
                        t[static_cast<std::size_t>(h)],
                        1e-3 * (1.0 + std::abs(t[h])))
                << "head " << h;
    }
}

TEST(SurrogateModel, NotReadyPredictsZero)
{
    OnlineCostModel model(surrogate::spatialFeatureDim(), 1e-3, 8);
    EXPECT_FALSE(model.ready());
    const auto corpus = spatialCorpus(3, 1);
    EXPECT_EQ(model.predict(surrogate::kHeadLogLoss, corpus[0]), 0.0);
}

TEST(SurrogateModel, KeepOneIsByteIdentical)
{
    // keep = 1.0 admits every candidate: the screen trains and
    // predicts but never answers, so the search trajectory must be
    // byte-identical to a run without any surrogate context.
    const CoSearchResult base = runSpatial(nullptr);

    SurrogateContext ctx;
    ctx.options.enabled = true;
    ctx.options.keep = 1.0;
    const CoSearchResult screened = runSpatial(&ctx);

    expectIdenticalResults(base, screened);
    const auto stats = screened.surrogateStats;
    EXPECT_TRUE(stats.enabled);
    EXPECT_GT(stats.screens, 0u);
    EXPECT_GT(stats.candidates, 0u);
    EXPECT_EQ(stats.screenedOut, 0u);
    EXPECT_EQ(stats.admitted, stats.candidates);
}

TEST(SurrogateModel, DisabledContextIsByteIdentical)
{
    const CoSearchResult base = runSpatial(nullptr);
    SurrogateContext ctx; // options.enabled defaults to false
    const CoSearchResult off = runSpatial(&ctx);
    expectIdenticalResults(base, off);
    EXPECT_EQ(off.surrogateStats.candidates, 0u);
}

TEST(SurrogateModel, ScreeningEngagesWithoutLeaking)
{
    SurrogateContext ctx;
    ctx.options.enabled = true;
    ctx.options.keep = 0.25;
    const CoSearchResult result = runSpatial(&ctx);

    const auto stats = result.surrogateStats;
    EXPECT_GT(stats.screenedOut, 0u);
    EXPECT_GT(stats.admitted, 0u);
    EXPECT_GT(stats.observations, 0u);
    EXPECT_GT(stats.refits, 0u);
    EXPECT_LT(stats.admitted, stats.candidates);

    // Fidelity guard: every reported record and Pareto entry carries
    // exact-model numbers (finite, positive, consistent).
    ASSERT_FALSE(result.records.empty());
    for (const auto &rec : result.records) {
        if (!rec.ppa.feasible)
            continue;
        EXPECT_TRUE(std::isfinite(rec.ppa.latencyMs));
        EXPECT_GT(rec.ppa.latencyMs, 0.0);
        EXPECT_GT(rec.ppa.powerMw, 0.0);
        EXPECT_GT(rec.ppa.areaMm2, 0.0);
    }
    for (const auto &entry : result.front.entries()) {
        ASSERT_LT(static_cast<std::size_t>(entry.id),
                  result.records.size());
        const auto &rec = result.records[entry.id];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(entry.objectives[0]),
                  std::bit_cast<std::uint64_t>(rec.ppa.latencyMs));
    }
}

namespace {

/**
 * One backend's mapping search over its real cost model, for the
 * typed incumbency test: the spatial annealing engine over the
 * analytical model, and the cube search over the cycle-level model.
 */
template <typename Cand>
struct SearchBackend;

template <>
struct SearchBackend<mapping::Mapping>
{
    workload::TensorOp op = convOp();
    accel::SpatialHwConfig hw = spatialHw();
    mapping::MappingSpace space{op};
    costmodel::AnalyticalCostModel model;

    mapping::MappingEval
    exact(const mapping::Mapping &m) const
    {
        return mapping::latencyEval(model.evaluate(op, hw, m), 0.0);
    }

    std::unique_ptr<mapping::SearchRun<mapping::Mapping>>
    start(mapping::Evaluator<mapping::Mapping> evaluator) const
    {
        return mapping::startSearch(mapping::EngineKind::Annealing, space,
                                    std::move(evaluator), 13);
    }
};

template <>
struct SearchBackend<camodel::CubeMapping>
{
    workload::TensorOp op = workload::TensorOp::gemm("g", 512, 512, 512);
    accel::CubeHwConfig hw = accel::CubeHwConfig::expertDefault();
    camodel::CubeMappingSpace space{op};
    camodel::CycleAccurateModel model;

    mapping::MappingEval
    exact(const camodel::CubeMapping &m) const
    {
        return mapping::latencyEval(model.evaluate(op, hw, m), 0.0);
    }

    std::unique_ptr<mapping::SearchRun<camodel::CubeMapping>>
    start(mapping::Evaluator<camodel::CubeMapping> evaluator) const
    {
        return std::make_unique<camodel::CubeSearchRun>(
            space, std::move(evaluator), 13);
    }
};

/**
 * A hostile screen that predicts an absurdly good loss for every
 * screened-out candidate: if surrogate-fidelity evals could leak into
 * the incumbent / samples / best-loss history, this would drag the
 * reported best loss to -1e17. It admits only every 4th candidate so
 * exact evaluations stay sparse.
 */
template <typename Cand>
class HostileScreen final : public mapping::CandidateScreen<Cand>
{
  public:
    std::optional<mapping::MappingEval>
    screen(const Cand &) override
    {
        if (++n_ % 4 == 1)
            return std::nullopt; // admit
        mapping::MappingEval eval;
        eval.loss = -1e17;
        eval.ppa.feasible = true;
        eval.ppa.latencyMs = 1e-9;
        eval.ppa.powerMw = 1e-9;
        eval.ppa.areaMm2 = 1e-9;
        eval.fidelity = mapping::Fidelity::Surrogate;
        return eval;
    }

    void
    observeExact(const Cand &, const mapping::MappingEval &) override
    {
        ++exact_;
    }

    int exact_ = 0;

  private:
    int n_ = 0;
};

struct CandidateName
{
    template <typename Cand>
    static std::string
    GetName(int)
    {
        return std::is_same_v<Cand, mapping::Mapping> ? "Spatial" : "Cube";
    }
};

} // namespace

template <typename Cand>
class SurrogateIncumbency : public ::testing::Test
{
};

using CandidateTypes =
    ::testing::Types<mapping::Mapping, camodel::CubeMapping>;
TYPED_TEST_SUITE(SurrogateIncumbency, CandidateTypes, CandidateName);

TYPED_TEST(SurrogateIncumbency, SurrogatePredictionsNeverBecomeIncumbent)
{
    using Cand = TypeParam;
    const SearchBackend<Cand> backend;
    HostileScreen<Cand> screen;
    auto run = backend.start(mapping::screeningEvaluator(
        &screen, [&backend](const Cand &c) { return backend.exact(c); }));
    run->step(120);

    EXPECT_EQ(run->spent(), 120);
    EXPECT_EQ(run->bestLossHistory().size(), 120u);
    // Only admitted candidates produce samples / train the screen.
    EXPECT_EQ(run->samples().size(),
              static_cast<std::size_t>(screen.exact_));
    EXPECT_LT(screen.exact_, 120);
    EXPECT_GT(screen.exact_, 0);
    // The incumbent is an exact evaluation, not the hostile -1e17,
    // and it is the candidate the exact model scored that way.
    EXPECT_EQ(run->bestEval().fidelity, mapping::Fidelity::Exact);
    EXPECT_GT(run->bestEval().loss, 0.0);
    EXPECT_EQ(backend.exact(run->best()).loss, run->bestEval().loss);
    for (double loss : run->bestLossHistory())
        EXPECT_GT(loss, 0.0);
    for (const auto &s : run->samples())
        EXPECT_GT(s.loss, 0.0);
    // History stays monotone across surrogate-fidelity entries.
    const auto &hist = run->bestLossHistory();
    for (std::size_t i = 1; i < hist.size(); ++i)
        ASSERT_LE(hist[i], hist[i - 1]);
}

TEST(SurrogateModel, ScreenedCsvRowsMatchExactRecords)
{
    SurrogateContext ctx;
    ctx.options.enabled = true;
    ctx.options.keep = 0.25;

    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.surrogate = &ctx;
    SpatialEnv env({workload::makeMobileNet()}, opt);
    CoOptimizer driver(env, tinyConfig());
    const CoSearchResult result = driver.run();

    const std::string records_csv =
        testing::TempDir() + "surrogate_records.csv";
    const std::string front_csv =
        testing::TempDir() + "surrogate_front.csv";
    ASSERT_TRUE(core::writeRecordsCsv(result, env, records_csv));
    ASSERT_TRUE(core::writeFrontCsv(result, env, front_csv));
    // One CSV row per exact HW record / Pareto entry: screened-out
    // candidates never gain a row anywhere.
    EXPECT_EQ(csvDataRows(records_csv), result.records.size());
    EXPECT_EQ(csvDataRows(front_csv), result.front.entries().size());
    std::remove(records_csv.c_str());
    std::remove(front_csv.c_str());
}

namespace {

/** CRC-64 over the bit patterns of every head's weights. */
std::uint64_t
weightDigest(const OnlineCostModel &model)
{
    std::uint64_t crc = 0;
    for (int h = 0; h < surrogate::kNumHeads; ++h)
        for (const double w : model.weights(h)) {
            const auto bits = std::bit_cast<std::uint64_t>(w);
            crc = common::crc64(&bits, sizeof bits, crc);
        }
    return crc;
}

/** CRC-64 of the records, front and trace CSV bytes of @p result. */
std::uint64_t
csvDigest(const CoSearchResult &result, const core::CoSearchEnv &env)
{
    const std::string prefix = testing::TempDir() + "surrogate_digest";
    EXPECT_TRUE(core::writeRecordsCsv(result, env, prefix + "_records.csv"));
    EXPECT_TRUE(core::writeFrontCsv(result, env, prefix + "_front.csv"));
    EXPECT_TRUE(core::writeTraceCsv(result, prefix + "_trace.csv"));
    std::uint64_t crc = 0;
    for (const char *kind : {"_records.csv", "_front.csv", "_trace.csv"}) {
        const std::string path = prefix + kind;
        std::ifstream in(path, std::ios::binary);
        const std::string bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        crc = common::crc64(bytes, crc);
        std::remove(path.c_str());
    }
    return crc;
}

/** A keep-0.25 screened co-search of @p backend; returns the CSV
 *  digest and checks that the screen answered some candidates. */
std::uint64_t
screenedRunDigest(const std::string &backend, workload::Network net,
                  int bmax)
{
    SurrogateContext ctx;
    ctx.options.enabled = true;
    ctx.options.keep = 0.25;
    core::BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.surrogate = &ctx;
    const auto env = core::makeBackendEnv(backend, {std::move(net)}, opt);
    DriverConfig cfg = tinyConfig();
    cfg.sh.bMax = bmax;
    CoOptimizer driver(*env, cfg);
    const CoSearchResult result = driver.run();
    EXPECT_GT(env->surrogateStats().screenedOut, 0u) << backend;
    return csvDigest(result, *env);
}

} // namespace

TEST(SurrogateModel, RidgeWeightsMatchParent)
{
    // Digests recorded with one Cholesky factorization per head and a
    // full Gram matrix. Solving every head on one factor of the
    // lower-triangle Gram must leave every weight bit unchanged, on
    // the well-posed RidgeRefitBitStable corpus and on a ridge-free,
    // rank-deficient one whose factorization needs the jitter retry.
    const auto corpus = spatialCorpus(48, 11);
    OnlineCostModel ridge(surrogate::spatialFeatureDim(), 1e-3, 8);
    OnlineCostModel jitter(surrogate::spatialFeatureDim(), 0.0, 8);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        ridge.observe(corpus[i], syntheticTargets(corpus[i]));
        if (i < 16)
            jitter.observe(corpus[i], syntheticTargets(corpus[i]));
    }
    EXPECT_EQ(weightDigest(ridge), 0x05e35f22e491b543ULL);
    EXPECT_EQ(weightDigest(jitter), 0x5e76afd92a036d19ULL);
}

TEST(SurrogateModel, ScreenedSearchMatchesParent)
{
    // Digests of the records/front/trace CSVs that keep-0.25 screened
    // searches wrote before the screen's refit was reworked.
    EXPECT_EQ(screenedRunDigest("spatial", workload::makeMobileNet(), 64),
              0xe8f29bc483f8374fULL);
    EXPECT_EQ(screenedRunDigest("ascend", workload::makeFsrcnn(120, 320), 24),
              0xc1dee989c687c3daULL);
}

TEST(SurrogateModel, ScreenedSearchIdenticalAcrossThreadsAndFleet)
{
    // Screens train only on their own run's exact evaluations, so a
    // screened search makes the same decisions on one thread, on four,
    // and in forked fleet workers.
    SurrogateContext ctx;
    ctx.options.enabled = true;
    ctx.options.keep = 0.25;
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.surrogate = &ctx;
    SpatialEnv env({workload::makeMobileNet()}, opt);
    DriverConfig cfg = tinyConfig();
    const CoSearchResult serial = CoOptimizer(env, cfg).run();
    EXPECT_GT(env.surrogateStats().screenedOut, 0u);

    cfg.realThreads = 4;
    expectIdenticalResults(serial, CoOptimizer(env, cfg).run());

    cfg.realThreads = 1;
    core::FleetConfig fleet_cfg;
    fleet_cfg.workers = 2;
    core::FleetEnv fleet(env, fleet_cfg);
    ASSERT_EQ(fleet.liveWorkers(), 2u);
    expectIdenticalResults(serial, CoOptimizer(fleet, cfg).run());
}
