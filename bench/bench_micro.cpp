/**
 * @file
 * Micro-benchmarks (google-benchmark) for the building blocks whose
 * throughput determines co-search cost: the analytical PPA model,
 * the cycle-level simulator, GP fit/predict, hypervolume and the
 * mapping operators. These quantify the paper's premise that the
 * analytical engine is orders of magnitude cheaper than the
 * cycle-level one.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "camodel/simulator.hh"
#include "common/frame.hh"
#include "common/rng.hh"
#include "common/shard_cache.hh"
#include "core/driver.hh"
#include "core/fleet_wire.hh"
#include "core/spatial_env.hh"
#include "costmodel/analytical.hh"
#include "cube_tile_oracle.hh"
#include "mapping/engine.hh"
#include "moo/hypervolume.hh"
#include "surrogate/gp.hh"
#include "surrogate/learned_model.hh"
#include "workload/model_zoo.hh"

using namespace unico;

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

void
BM_AnalyticalEvaluate(benchmark::State &state)
{
    const costmodel::AnalyticalCostModel model;
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(1);
    std::vector<mapping::Mapping> mappings;
    for (int i = 0; i < 64; ++i)
        mappings.push_back(space.random(rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(op, hw, mappings[i++ % mappings.size()]));
    }
}
BENCHMARK(BM_AnalyticalEvaluate);

void
BM_CycleLevelEvaluate(benchmark::State &state)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(op, hw, mappings[i++ % mappings.size()]));
    }
}
BENCHMARK(BM_CycleLevelEvaluate);

/** Cube evaluation through the production cache path; the entry
 *  carries the query's nominal seconds, as the ascend policy's do. */
mapping::MappingEval
cachedCube(const camodel::CycleAccurateModel &model,
           const camodel::PreparedCubeQuery &prep,
           const camodel::CubeMapping &m, accel::EvalCache *cache)
{
    return mapping::cachedEvaluate(cache, prep.context, m, [&] {
        camodel::SimStats stats;
        const accel::Ppa ppa = model.evaluate(prep, m, &stats);
        return mapping::latencyEval(ppa, model.nominalEvalSeconds(stats));
    });
}

void
BM_CycleLevelEvaluateCachedWarm(benchmark::State &state)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const auto prep = model.prepare(op, hw);
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    accel::EvalCache cache(16 * 1024 * 1024);
    for (const auto &m : mappings)
        cachedCube(model, prep, m, &cache);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cachedCube(
            model, prep, mappings[i++ % mappings.size()], &cache));
    }
}
BENCHMARK(BM_CycleLevelEvaluateCachedWarm);

/**
 * Successive-halving-shaped workload over the cycle-level engine:
 * the same candidate set is re-evaluated round after round (the
 * co-search hot loop re-runs survivors with larger budgets, and
 * multi-seed sweeps repeat whole trials). Uncached vs cached
 * quantifies the warm-path speedup the evaluation cache buys where
 * it matters — on the expensive simulator queries.
 */
void
mshRounds(benchmark::State &state, accel::EvalCache *cache)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 256, 256, 256);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const auto prep = model.prepare(op, hw);
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(7);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    for (auto _ : state) {
        double acc = 0.0;
        for (int round = 0; round < 4; ++round) {
            for (const auto &m : mappings)
                acc += cachedCube(model, prep, m, cache).ppa.latencyMs;
        }
        benchmark::DoNotOptimize(acc);
    }
}

void
BM_MshRoundsUncached(benchmark::State &state)
{
    mshRounds(state, nullptr);
}
BENCHMARK(BM_MshRoundsUncached);

void
BM_MshRoundsCached(benchmark::State &state)
{
    accel::EvalCache cache(16 * 1024 * 1024);
    mshRounds(state, &cache);
}
BENCHMARK(BM_MshRoundsCached);

/** The pre-overhaul reference's per-call context hash: the (tech,
 *  hw, op) triple of one spatial query, hashed from scratch. */
common::Fingerprint
spatialContextFingerprint(const costmodel::TechParams &tech,
                          const accel::SpatialHwConfig &hw,
                          const workload::TensorOp &op)
{
    common::FingerprintBuilder fb;
    fb.add(std::string_view{"A"}); // model-kind salt
    fb.add(tech.clockGhz)
        .add(tech.macPj)
        .add(tech.l1BasePj)
        .add(tech.l1SlopePj)
        .add(tech.l2BasePj)
        .add(tech.l2SlopePj)
        .add(tech.dramPj)
        .add(tech.nocPjPerByteHop)
        .add(tech.dramBytesPerCycle)
        .add(tech.peAreaMm2)
        .add(tech.sramMm2PerKb)
        .add(tech.nocAreaMm2PerPeBw)
        .add(tech.staticMwPerMm2)
        .add(tech.registerReuse);
    fb.add(hw.peX).add(hw.peY).add(hw.l1Bytes).add(hw.l2Bytes)
        .add(hw.nocBandwidth)
        .add(static_cast<int>(hw.dataflow));
    fb.add(op.fingerprint());
    return fb.fingerprint();
}

/**
 * Cold-evaluation kernels: the work a mapping engine pays for every
 * previously unseen candidate. The unprepared variants replicate the
 * pre-overhaul kernel — re-hashing the query context fingerprint and
 * re-deriving operand masks / sqrt energy constants per call, as the
 * cached path historically did, and for the cube running the
 * per-L0-tile inner pipeline (retained verbatim as the traced path;
 * trace cap 1 keeps recording cost negligible). The prepared variants
 * are the production calls: the spatial policy queries the model
 * through its PreparedSpatialQuery with no cache key, and the cube
 * policy keys its cache and runs the closed-form fast path through
 * PreparedCubeQuery. The ns_per_eval counter carries both into
 * BENCH_micro.json, where CI guards the ratio.
 */
void
BM_ColdEvalSpatial(benchmark::State &state)
{
    const costmodel::AnalyticalCostModel model;
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(1);
    std::vector<mapping::Mapping> mappings;
    for (int i = 0; i < 64; ++i)
        mappings.push_back(space.random(rng));
    std::size_t i = 0;
    std::uint64_t keys = 0;
    double lat = 0.0;
    for (auto _ : state) {
        const auto &m = mappings[i];
        i = (i + 1) & (mappings.size() - 1); // size is a power of two
        keys += spatialContextFingerprint(model.tech(), hw, op).lo;
        lat += model.evaluate(op, hw, m).latencyMs;
    }
    benchmark::DoNotOptimize(keys);
    benchmark::DoNotOptimize(lat);
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per evaluation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColdEvalSpatial);

void
BM_ColdEvalSpatialPrepared(benchmark::State &state)
{
    const costmodel::AnalyticalCostModel model;
    const auto op = convOp();
    const auto hw = spatialHw();
    const mapping::MappingSpace space(op);
    common::Rng rng(1);
    std::vector<mapping::Mapping> mappings;
    for (int i = 0; i < 64; ++i)
        mappings.push_back(space.random(rng));
    const costmodel::PreparedSpatialQuery prep = model.prepare(op, hw);
    std::size_t i = 0;
    double lat = 0.0;
    for (auto _ : state) {
        const auto &m = mappings[i];
        i = (i + 1) & (mappings.size() - 1); // size is a power of two
        lat += model.evaluate(prep, m).latencyMs;
    }
    benchmark::DoNotOptimize(lat);
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per evaluation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColdEvalSpatialPrepared);

void
BM_ColdEvalCube(benchmark::State &state)
{
    // Pre-overhaul reference: the per-L0-tile loop of
    // tests/cube_tile_oracle.hh (the kernel before its closed form),
    // with the per-call context setup and cache-key hash it paid.
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    std::size_t i = 0;
    std::uint64_t keys = 0;
    double lat = 0.0;
    for (auto _ : state) {
        const auto &m = mappings[i];
        i = (i + 1) & (mappings.size() - 1); // size is a power of two
        const camodel::PreparedCubeQuery prep = model.prepare(op, hw);
        keys += accel::evalCacheKey(prep.context, m.fingerprint()).lo;
        lat += oracle::evaluateCubeTiles(model, prep, m).latencyMs;
    }
    benchmark::DoNotOptimize(keys);
    benchmark::DoNotOptimize(lat);
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per evaluation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColdEvalCube);

void
BM_ColdEvalCubePrepared(benchmark::State &state)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 512, 512, 512);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(2);
    std::vector<camodel::CubeMapping> mappings;
    for (int i = 0; i < 16; ++i)
        mappings.push_back(space.random(rng));
    const camodel::PreparedCubeQuery prep = model.prepare(op, hw);
    std::size_t i = 0;
    std::uint64_t keys = 0;
    double lat = 0.0;
    for (auto _ : state) {
        const auto &m = mappings[i];
        i = (i + 1) & (mappings.size() - 1); // size is a power of two
        keys += accel::evalCacheKey(prep.context, m.fingerprint()).lo;
        lat += model.evaluate(prep, m).latencyMs;
    }
    benchmark::DoNotOptimize(keys);
    benchmark::DoNotOptimize(lat);
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per evaluation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColdEvalCubePrepared);

/**
 * The mapping mutation every annealing and genetic step pays for.
 * BM_MappingMutateFullRepair replicates the pre-change operator (the
 * same draws, then a full repair() that re-snaps all 14 tiles to their
 * ladders); BM_MappingMutate is the production call, which fixes only
 * the facet it moved. CI guards the ns_per_eval ratio.
 */
mapping::Mapping
mutateWithFullRepair(const mapping::MappingSpace &space,
                     const mapping::Mapping &m, common::Rng &rng)
{
    using mapping::kNumDims;
    mapping::Mapping out = m;
    const auto step = [&](std::int64_t &tile, int d) {
        const auto &ladder = space.tileLadder(d);
        auto it = std::lower_bound(ladder.begin(), ladder.end(), tile);
        std::size_t idx = static_cast<std::size_t>(it - ladder.begin());
        if (rng.bernoulli(0.5) && idx + 1 < ladder.size())
            ++idx;
        else if (idx > 0)
            --idx;
        tile = ladder[idx];
    };
    switch (rng.uniformInt(std::uint64_t{5})) {
      case 0: {
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        step(out.l1Tile[d], d);
        break;
      }
      case 1: {
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        step(out.l2Tile[d], d);
        break;
      }
      case 2:
        if (rng.bernoulli(0.5))
            out.spatialX = rng.pick(space.spatialChoices());
        else
            out.spatialY = rng.pick(space.spatialChoices());
        break;
      case 3: {
        const std::size_t i = rng.uniformInt(std::uint64_t{kNumDims});
        const std::size_t j = rng.uniformInt(std::uint64_t{kNumDims});
        std::swap(out.order[i], out.order[j]);
        break;
      }
      default: {
        const int d = static_cast<int>(rng.uniformInt(
            std::uint64_t{kNumDims}));
        out.l1Tile[d] = rng.pick(space.tileLadder(d));
        out.l2Tile[d] = rng.pick(space.tileLadder(d));
        break;
      }
    }
    space.repair(out);
    return out;
}

template <typename Mutate>
void
mutateLoop(benchmark::State &state, Mutate mutate)
{
    const mapping::MappingSpace space(convOp());
    common::Rng rng(3);
    mapping::Mapping m = space.random(rng);
    for (auto _ : state) {
        m = mutate(space, m, rng);
        benchmark::DoNotOptimize(m);
    }
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per mutation.
    state.counters["ns_per_eval"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_MappingMutateFullRepair(benchmark::State &state)
{
    mutateLoop(state, mutateWithFullRepair);
}
BENCHMARK(BM_MappingMutateFullRepair);

void
BM_MappingMutate(benchmark::State &state)
{
    mutateLoop(state, [](const mapping::MappingSpace &space,
                         const mapping::Mapping &m, common::Rng &rng) {
        return space.mutate(m, rng);
    });
}
BENCHMARK(BM_MappingMutate);

void
BM_GpFit(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    common::Rng rng(4);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (std::size_t i = 0; i < n; ++i) {
        x.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        y.push_back(rng.gaussian());
    }
    for (auto _ : state) {
        surrogate::GaussianProcess gp;
        gp.fit(x, y);
        benchmark::DoNotOptimize(gp.trained());
    }
}
BENCHMARK(BM_GpFit)->Arg(32)->Arg(128)->Arg(256);

void
BM_GpPredict(benchmark::State &state)
{
    common::Rng rng(5);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 128; ++i) {
        x.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        y.push_back(rng.gaussian());
    }
    surrogate::GaussianProcess gp;
    gp.fit(x, y);
    const std::vector<double> q = {0.3, 0.5, 0.7};
    for (auto _ : state)
        benchmark::DoNotOptimize(gp.predict(q));
}
BENCHMARK(BM_GpPredict);

/**
 * EI acquisition over one MOBO slot's candidate pool: a GP on n = 224
 * grid points of a spatial-shaped space (axis sizes 16, 16, 12, 12, 2,
 * 2) scores m = 240 candidates, 192 random and 48 mutants of the
 * 8 best training points, like MoboHwSampler's pool. The serial
 * variant is the predict() + EI scan kept as the test oracle; the
 * other is GaussianProcess::argmaxExpectedImprovement, which returns
 * the same index. ns_per_candidate carries both into BENCH_micro.json,
 * where CI guards their ratio.
 */
struct EiArgmaxCase
{
    surrogate::GaussianProcess gp;
    std::vector<std::vector<double>> pool;
    std::vector<double> rows; ///< pool, row-major
    double incumbent = 0.0;
};

EiArgmaxCase
makeEiArgmaxCase()
{
    const std::size_t sizes[] = {16, 16, 12, 12, 2, 2};
    common::Rng rng(12);
    const auto point = [&] {
        std::vector<double> x;
        for (const std::size_t s : sizes)
            x.push_back(static_cast<double>(rng.uniformInt(s)) /
                        static_cast<double>(s - 1));
        return x;
    };
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 224; ++i) {
        x.push_back(point());
        const auto &p = x.back();
        y.push_back(std::log(1.0 + 4.0 * (1.0 - p[0]) * (1.0 - p[1])) +
                    0.5 * p[2] * p[3] + 0.2 * p[4] + 0.1 * rng.gaussian());
    }
    EiArgmaxCase out;
    out.gp.fitWithHyperopt(x, y, 256, 1);
    for (int j = 0; j < 192; ++j)
        out.pool.push_back(point());
    std::vector<std::size_t> order(x.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return y[a] < y[b]; });
    for (int j = 0; j < 48; ++j) {
        std::vector<double> mutant = x[order[j % 8]];
        const std::size_t axis = rng.uniformInt(mutant.size());
        mutant[axis] = point()[axis];
        out.pool.push_back(std::move(mutant));
    }
    for (const auto &cand : out.pool)
        out.rows.insert(out.rows.end(), cand.begin(), cand.end());
    out.incumbent = y[order.front()];
    return out;
}

std::size_t
serialEiArgmax(const EiArgmaxCase &c)
{
    std::size_t best = c.pool.size();
    double best_ei = -1.0;
    for (std::size_t j = 0; j < c.pool.size(); ++j) {
        const double ei = surrogate::expectedImprovement(
            c.gp.predict(c.pool[j]), c.incumbent);
        if (ei > best_ei) {
            best_ei = ei;
            best = j;
        }
    }
    return best;
}

void
eiArgmaxCounters(benchmark::State &state, const EiArgmaxCase &c)
{
    // iterations * pool * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per scored candidate.
    state.counters["ns_per_candidate"] = benchmark::Counter(
        static_cast<double>(state.iterations() * c.pool.size()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_EiArgmaxSerial(benchmark::State &state)
{
    const EiArgmaxCase c = makeEiArgmaxCase();
    for (auto _ : state)
        benchmark::DoNotOptimize(serialEiArgmax(c));
    eiArgmaxCounters(state, c);
}
BENCHMARK(BM_EiArgmaxSerial);

void
BM_EiArgmax(benchmark::State &state)
{
    EiArgmaxCase c = makeEiArgmaxCase();
    const auto argmax = [&] {
        return c.gp.argmaxExpectedImprovement(c.rows.data(), c.pool.size(),
                                              c.incumbent);
    };
    if (argmax() != serialEiArgmax(c)) {
        state.SkipWithError("argmax differs from the serial scan");
        return;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(argmax());
    eiArgmaxCounters(state, c);
}
BENCHMARK(BM_EiArgmax);

void
BM_Hypervolume3d(benchmark::State &state)
{
    common::Rng rng(6);
    std::vector<moo::Objectives> pts;
    for (int i = 0; i < state.range(0); ++i)
        pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    const moo::Objectives ref = {1.1, 1.1, 1.1};
    for (auto _ : state)
        benchmark::DoNotOptimize(moo::hypervolume(pts, ref));
}
BENCHMARK(BM_Hypervolume3d)->Arg(8)->Arg(32);

void
BM_ModelZooBuild(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(workload::makeResNet().totalMacs());
    }
}
BENCHMARK(BM_ModelZooBuild);

/**
 * Codec cost of one fleet round trip: the master encodes a
 * spatial-fleet-sized request (6 axes, 8 ops) into a sealed frame, the
 * worker decodes it, encodes a state reply with a 30-entry loss
 * history into a sealed frame, and the master decodes that. The e2e
 * split cannot separate this from the IPC and the op work of a trip.
 * Counters: ns per round trip and the two payload sizes.
 */
void
BM_FleetWireRoundTrip(benchmark::State &state)
{
    namespace wire = core::wire;
    wire::Request req;
    req.kind = wire::RequestKind::Sync;
    req.seed = 0x5eed;
    req.hw = {3, 1, 4, 1, 5, 2};
    for (int i = 0; i < 8; ++i)
        req.ops.push_back({wire::OpKind::Step, 4});
    req.done = 0;
    wire::Reply reply;
    reply.kind = wire::ReplyKind::State;
    reply.applied = 8;
    reply.spent = 32;
    reply.seconds = 64.0;
    reply.ppa = accel::Ppa{1.5, 200.0, 3.25, 300.0, true};
    common::Rng rng(8);
    for (int i = 0; i < 30; ++i)
        reply.hist.push_back(rng.uniform());

    std::string reqFrame;
    std::string repFrame;
    wire::Request gotReq;
    wire::Reply gotRep;
    bool ok = true;
    for (auto _ : state) {
        ++req.nonce;
        common::beginFrame(reqFrame);
        wire::encode(req, reqFrame);
        common::sealFrame(reqFrame);
        const std::string_view reqPayload =
            std::string_view(reqFrame).substr(common::kFrameHeaderSize);
        ok &= wire::decode(reqPayload, gotReq) == wire::WireError::None;
        reply.nonce = gotReq.nonce;
        common::beginFrame(repFrame);
        wire::encode(reply, repFrame);
        common::sealFrame(repFrame);
        const std::string_view repPayload =
            std::string_view(repFrame).substr(common::kFrameHeaderSize);
        ok &= wire::decode(repPayload, gotRep) == wire::WireError::None;
        benchmark::DoNotOptimize(gotRep.hist.data());
    }
    if (!ok || gotRep.nonce != req.nonce) {
        state.SkipWithError("round trip failed to decode");
        return;
    }
    // iterations * 1e-9 under kIsRate|kInvert reports elapsed
    // nanoseconds per round trip.
    state.counters["ns_per_round_trip"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["request_bytes"] =
        static_cast<double>(reqFrame.size() - common::kFrameHeaderSize);
    state.counters["reply_bytes"] =
        static_cast<double>(repFrame.size() - common::kFrameHeaderSize);
}
BENCHMARK(BM_FleetWireRoundTrip);

/**
 * End-to-end spatial co-search on the Fig. 9 training workload,
 * exact-only vs surrogate-screened (keep = 0.25). Counters carry the
 * acceptance metrics into BENCH_micro.json: exact evaluations (the
 * candidates of every spent sweep that the screen did not answer),
 * screening decision totals, and the final constrained front's
 * hypervolume in fixed log10 coordinates. The fixed log-domain
 * reference makes the hypervolume comparable across the two
 * registrations without shared min-max bounds.
 */
void
surrogateCoSearch(benchmark::State &state, bool screened)
{
    double exact_evals = 0.0;
    double hv = 0.0;
    surrogate::SurrogateStats sstats;
    for (auto _ : state) {
        std::vector<workload::Network> nets;
        for (const char *name :
             {"mobilenet_v2", "resnet", "srgan", "vgg"})
            nets.push_back(workload::makeNetwork(name));
        surrogate::SurrogateContext ctx;
        ctx.options.enabled = screened;
        ctx.options.keep = 0.25;
        core::BackendOptions env_opt;
        env_opt.scenario = accel::Scenario::Edge;
        env_opt.maxShapesPerNetwork = 2;
        env_opt.surrogate = &ctx;
        core::SpatialEnv env(std::move(nets), env_opt);
        core::DriverConfig cfg = core::DriverConfig::unico();
        cfg.batchSize = 6;
        cfg.maxIter = 3;
        cfg.sh.bMax = 240;
        cfg.minBudgetPerRound = 8;
        cfg.workers = 1;
        cfg.seed = 9;
        core::CoOptimizer driver(env, cfg);
        const core::CoSearchResult result = driver.run();
        sstats = result.surrogateStats;
        // One budget unit is a sweep: one candidate per layer.
        exact_evals = static_cast<double>(result.evaluations *
                                              env.layers().size() -
                                          sstats.screenedOut);
        std::vector<moo::Objectives> pts;
        pts.reserve(result.front.size());
        std::size_t dims = 3;
        for (const auto &entry : result.front.entries()) {
            moo::Objectives z;
            z.reserve(entry.objectives.size());
            for (double v : entry.objectives)
                z.push_back(std::log10(1.0 + std::max(v, 0.0)));
            dims = z.size();
            pts.push_back(std::move(z));
        }
        hv = moo::hypervolume(pts, moo::Objectives(dims, 9.0));
    }
    state.counters["exact_evals"] = exact_evals;
    state.counters["screen_candidates"] =
        static_cast<double>(sstats.candidates);
    state.counters["screened_out"] =
        static_cast<double>(sstats.screenedOut);
    state.counters["admitted"] = static_cast<double>(sstats.admitted);
    state.counters["forced_admits"] =
        static_cast<double>(sstats.forcedAdmits);
    state.counters["surrogate_refits"] =
        static_cast<double>(sstats.refits);
    state.counters["hypervolume_log10"] = hv;
}

void
BM_CoSearchExactOnly(benchmark::State &state)
{
    surrogateCoSearch(state, false);
}
BENCHMARK(BM_CoSearchExactOnly)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_CoSearchSurrogateScreened(benchmark::State &state)
{
    surrogateCoSearch(state, true);
}
BENCHMARK(BM_CoSearchSurrogateScreened)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

/**
 * Like BENCHMARK_MAIN(), but additionally writes the machine-readable
 * BENCH_micro.json (google-benchmark JSON schema) into the working
 * directory unless the caller passed an explicit --benchmark_out;
 * CI runs the micro subset and uploads that file as an artifact.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0)
            has_out = true;
    static char out_flag[] = "--benchmark_out=BENCH_micro.json";
    static char fmt_flag[] = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag);
        args.push_back(fmt_flag);
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
