/**
 * @file
 * Bit-identity tests for the cold-evaluation kernel: prepared query
 * contexts must reproduce the direct evaluate() path exactly, the
 * cube simulator's closed-form fast path must match the per-L0-tile
 * reference of tests/cube_tile_oracle.hh, the shared ceilDiv helper
 * must handle its edge cases, and repeatAdd/periodicAdd must return
 * the literal loops' bits.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "accel/ascend.hh"
#include "accel/ppa.hh"
#include "accel/spatial.hh"
#include "camodel/cube_mapping.hh"
#include "camodel/simulator.hh"
#include "common/math.hh"
#include "common/rng.hh"
#include "costmodel/analytical.hh"
#include "cube_tile_oracle.hh"
#include "mapping/mapping.hh"
#include "workload/model_zoo.hh"

using namespace unico;

namespace {

/** Exact bit equality, distinguishing -0.0/0.0 and NaN payloads. */
void
expectSameBits(double a, double b, const char *what)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << what << ": " << a << " vs " << b;
}

void
expectSamePpa(const accel::Ppa &a, const accel::Ppa &b)
{
    expectSameBits(a.latencyMs, b.latencyMs, "latencyMs");
    expectSameBits(a.powerMw, b.powerMw, "powerMw");
    expectSameBits(a.areaMm2, b.areaMm2, "areaMm2");
    expectSameBits(a.energyMj, b.energyMj, "energyMj");
    EXPECT_EQ(a.feasible, b.feasible);
}

std::vector<workload::TensorOp>
zooOps()
{
    std::vector<workload::TensorOp> ops;
    for (const char *name : {"mobilenet", "resnet", "bert"})
        for (const auto &wop : workload::makeNetwork(name).dominantOps(2))
            ops.push_back(wop.op);
    return ops;
}

} // namespace

/* ---------------------- prepared contexts ----------------------- */

TEST(PreparedSpatialQuery, BitIdenticalToDirectEvaluate)
{
    const costmodel::AnalyticalCostModel model;
    const accel::SpatialDesignSpace ds(accel::Scenario::Edge);
    common::Rng rng(7);
    for (const auto &op : zooOps()) {
        const mapping::MappingSpace space(op);
        for (int trial = 0; trial < 8; ++trial) {
            const auto hw = ds.decode(ds.space().randomPoint(rng));
            const costmodel::PreparedSpatialQuery prep =
                model.prepare(op, hw);
            for (int i = 0; i < 16; ++i) {
                const mapping::Mapping m = space.random(rng);
                expectSamePpa(model.evaluate(op, hw, m),
                              model.evaluate(prep, m));
            }
        }
    }
}

TEST(PreparedCubeQuery, BitIdenticalToDirectEvaluate)
{
    const camodel::CycleAccurateModel model;
    const accel::AscendDesignSpace ds;
    common::Rng rng(11);
    const auto op = workload::TensorOp::gemm("g", 384, 512, 256);
    const camodel::CubeMappingSpace space(op);
    for (int trial = 0; trial < 6; ++trial) {
        const auto hw = ds.decode(ds.space().randomPoint(rng));
        const camodel::PreparedCubeQuery prep = model.prepare(op, hw);
        EXPECT_EQ(prep.context, model.queryFingerprint(op, hw));
        for (int i = 0; i < 6; ++i) {
            const camodel::CubeMapping m = space.random(rng);
            expectSamePpa(model.evaluate(op, hw, m),
                          model.evaluate(prep, m));
        }
    }
}

/* ------------- cube fast path vs the per-tile oracle ------------- */

/**
 * The oracle (tests/cube_tile_oracle.hh) walks the per-L0-tile
 * double loop tile by tile; the production path computes the same
 * accumulators in closed form. Both must produce the same PPA and
 * every SimStats counter bit for bit, on zoo layers, under forced
 * extrapolation, with a single K step per block (tk1 = 1) and under
 * every L0 bank count, including the 1.25 and 1.08 conflict factors.
 */
TEST(CubeFastPath, TracedMatchesUntracedExactly)
{
    std::vector<workload::TensorOp> ops = {
        workload::TensorOp::gemm("a", 512, 512, 512),
        workload::TensorOp::gemm("b", 96, 1024, 64),
        workload::TensorOp::gemm("c", 17, 33, 129)};
    for (const char *name : {"unet", "fsrcnn_120x320"})
        for (const auto &wop : workload::makeNetwork(name).uniqueOps())
            ops.push_back(wop.op);
    camodel::CubeTech capped; // extrapolates every nest past 64 tiles
    capped.maxSimulatedTiles = 64;
    const std::int64_t bank_counts[] = {1, 2, 4, 8};
    const accel::AscendDesignSpace ds;
    common::Rng rng(13);
    int feasible = 0, extrapolated = 0, single_k = 0;
    for (const camodel::CubeTech &tech : {camodel::CubeTech{}, capped}) {
        const camodel::CycleAccurateModel fast(tech);
        for (const auto &op : ops) {
            const camodel::CubeMappingSpace space(op);
            for (int b = 0; b < 4; ++b) {
                auto hw = ds.decode(ds.space().randomPoint(rng));
                hw.l0aBanks = bank_counts[b];
                hw.l0bBanks = bank_counts[(b + 1) % 4];
                hw.l0cBanks = bank_counts[(b + 2) % 4];
                camodel::CubeMapping one_k = space.random(rng);
                one_k.k1 = space.shape().k;
                space.repair(one_k);
                for (const camodel::CubeMapping &m :
                     {space.random(rng), one_k}) {
                    camodel::SimStats sf, st;
                    const accel::Ppa pf = fast.evaluate(op, hw, m, &sf);
                    const accel::Ppa pt = oracle::evaluateCubeTiles(
                        fast, fast.prepare(op, hw), m, &st);
                    expectSamePpa(pf, pt);
                    expectSameBits(sf.cycles, st.cycles, "cycles");
                    expectSameBits(sf.cubeBusyCycles, st.cubeBusyCycles,
                                   "cubeBusyCycles");
                    expectSameBits(sf.dmaBusyCycles, st.dmaBusyCycles,
                                   "dmaBusyCycles");
                    expectSameBits(sf.vecBusyCycles, st.vecBusyCycles,
                                   "vecBusyCycles");
                    expectSameBits(sf.dramBytes, st.dramBytes,
                                   "dramBytes");
                    EXPECT_EQ(sf.l0Tiles, st.l0Tiles);
                    EXPECT_EQ(sf.l1Tiles, st.l1Tiles);
                    EXPECT_EQ(sf.extrapolated, st.extrapolated);
                    if (HasFailure()) {
                        ADD_FAILURE() << op.name << " " << m.describe()
                                      << " " << hw.describe();
                        return;
                    }
                    if (!pf.feasible)
                        continue;
                    ++feasible;
                    extrapolated += sf.extrapolated ? 1 : 0;
                    single_k += m.k1 >= space.shape().k ? 1 : 0;
                }
            }
        }
    }
    // The sweep must reach the paths it is meant to cover (222
    // feasible, 160 of them extrapolated, 106 with tk1 = 1 at seed 13).
    EXPECT_GE(feasible, 150);
    EXPECT_GE(extrapolated, 100);
    EXPECT_GE(feasible - extrapolated, 40);
    EXPECT_GE(single_k, 60);
}

/* ------------------------- ceilDiv ------------------------------ */

TEST(CeilDiv, EdgeCases)
{
    using common::ceilDiv;
    EXPECT_EQ(ceilDiv(0, 1), 0);
    EXPECT_EQ(ceilDiv(0, 7), 0);
    EXPECT_EQ(ceilDiv(1, 1), 1);
    EXPECT_EQ(ceilDiv(1, 7), 1);
    EXPECT_EQ(ceilDiv(6, 7), 1);
    EXPECT_EQ(ceilDiv(7, 7), 1);
    EXPECT_EQ(ceilDiv(8, 7), 2);
    EXPECT_EQ(ceilDiv(13, 7), 2);
    EXPECT_EQ(ceilDiv(14, 7), 2);
    EXPECT_EQ(ceilDiv(15, 7), 3);
    const std::int64_t big = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(ceilDiv(big, 1), big);
    EXPECT_EQ(ceilDiv(big, big), 1);
    EXPECT_EQ(ceilDiv(big - 1, big), 1);
    // (a + b - 1) / b naively overflows for a near INT64_MAX; the
    // shared helper must not.
    EXPECT_EQ(ceilDiv(big, 2), big / 2 + 1);
}

/* ------------------ repeatAdd / periodicAdd --------------------- */

namespace {

double
literalRepeat(double x, double c, std::int64_t n)
{
    for (std::int64_t i = 0; i < n; ++i)
        x += c;
    return x;
}

double
literalPeriodic(double x, double a, double b, std::int64_t k,
                std::int64_t T)
{
    for (std::int64_t t = 0; t < T; ++t)
        x += ((t + 1) % k == 0) ? b : a;
    return x;
}

/** A start value or addend from one of the families the closed forms
 *  treat differently. */
double
randomValue(common::Rng &rng)
{
    switch (rng.uniformInt(std::uint64_t{7})) {
      case 0:
        return 0.0;
      case 1: // dyadic: every partial sum exact
        return static_cast<double>(rng.uniformInt(std::int64_t{1},
                                                  std::int64_t{1} << 20)) /
               std::ldexp(1.0, static_cast<int>(rng.uniformInt(24)));
      case 2: // full 53-bit significand, over many binades
        return std::ldexp(rng.uniform(1.0, 2.0),
                          static_cast<int>(rng.uniformInt(80)) - 40);
      case 3: // a two-bank L0 move: bytes / (32 B * 2 banks) * 1.08
        return static_cast<double>(2 * rng.uniformInt(1, 256) *
                                   rng.uniformInt(1, 256)) /
               64.0 * 1.08;
      case 4: // tiny and subnormal
        return std::ldexp(rng.uniform(0.0, 2.0),
                          -1074 + static_cast<int>(rng.uniformInt(64)));
      case 5: // just below 2^53, where the ulp grows past 1
        return std::ldexp(1.0, 53) -
               static_cast<double>(rng.uniformInt(4096));
      default: // a tie in the [2^52, 2^53) binade, or an integer above
        return 0.5 * static_cast<double>(rng.uniformInt(1, 64));
    }
}

/** Start values that sit in the same binade as @p c, or far above. */
double
randomStart(common::Rng &rng, double c)
{
    if (rng.bernoulli(0.3) && c > 0.0)
        return c * rng.uniform(0.0, 8.0);
    return randomValue(rng);
}

} // namespace

TEST(RepeatAdd, MatchesLiteralLoopOnRandomCases)
{
    common::Rng rng(41);
    for (int trial = 0; trial < 12000; ++trial) {
        const double c = randomValue(rng);
        const double x = randomStart(rng, c);
        const auto n = static_cast<std::int64_t>(rng.uniformInt(2000));
        expectSameBits(common::repeatAdd(x, c, n), literalRepeat(x, c, n),
                       "repeatAdd");
        if (HasFailure()) {
            ADD_FAILURE() << "x=" << x << " c=" << c << " n=" << n;
            return;
        }
    }
}

TEST(PeriodicAdd, MatchesLiteralLoopOnRandomCases)
{
    common::Rng rng(43);
    for (int trial = 0; trial < 12000; ++trial) {
        const double a = randomValue(rng);
        const double b = rng.bernoulli(0.2) ? a : randomValue(rng);
        const double x = randomStart(rng, a);
        const std::int64_t k = rng.bernoulli(0.8) ? rng.uniformInt(1, 12)
                                                  : rng.uniformInt(1, 900);
        const auto T = static_cast<std::int64_t>(rng.uniformInt(2000));
        expectSameBits(common::periodicAdd(x, a, b, k, T),
                       literalPeriodic(x, a, b, k, T), "periodicAdd");
        if (HasFailure()) {
            ADD_FAILURE() << "x=" << x << " a=" << a << " b=" << b
                          << " k=" << k << " T=" << T;
            return;
        }
    }
}

TEST(RepeatAdd, TiesAndZeroStart)
{
    const double two52 = std::ldexp(1.0, 52);
    const double two53 = std::ldexp(1.0, 53);
    struct Case { double x, c; std::int64_t n; };
    const Case cases[] = {
        // u = 1: c = w + 1/2 from an odd and from an even start.
        {two52 + 1.0, 0.5, 9},
        {two52 + 1.0, 2.5, 1000},
        {two52, 2.5, 1000},
        {two52 + 3.0, 3.5, 777},
        // u = 2 past 2^53: odd integers tie, even ones do not.
        {two53 - 10.0, 1.0, 40},
        {two53 - 10.0, 3.0, 5000},
        {two53 - 11.0, 1.5, 5000},
        // u = 256: c = 5 u + u/2, from both parities.
        {std::ldexp(1.0, 60), 1408.0, 100000},
        {std::ldexp(1.0, 60) + 256.0, 1408.0, 100000},
        // Zero start: the run reaches the addend's tie binade, where
        // its lowest bit is half an ulp.
        {0.0, 1.0 + std::ldexp(1.0, -52), 100},
        {0.0, 3.0 + std::ldexp(1.0, -40), 100000},
        {0.0, 0.1, 100000},
        {0.0, 0.0, 5},
    };
    for (const Case &t : cases)
        expectSameBits(common::repeatAdd(t.x, t.c, t.n),
                       literalRepeat(t.x, t.c, t.n), "tie");
}

TEST(RepeatAdd, AddendsBelowHalfAnUlpRoundAway)
{
    const double big = std::ldexp(1.0, 60); // u = 256
    for (const double c : {1.0, 127.0, 127.99999999999999, 128.0,
                           128.00000000000003, 200.0}) {
        expectSameBits(common::repeatAdd(big, c, 1000000),
                       literalRepeat(big, c, 1000000), "round-away");
    }
    // Below half an ulp the accumulator never moves.
    expectSameBits(common::repeatAdd(big, 127.0,
                                     std::int64_t{1} << 62),
                   big, "fixed point");
}

TEST(RepeatAdd, TotalsPastTwoTo53)
{
    const double start = std::ldexp(1.0, 53) - 1000.0;
    for (const double c : {0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 7.0, 0.3}) {
        expectSameBits(common::repeatAdd(start, c, 300000),
                       literalRepeat(start, c, 300000), "past 2^53");
        expectSameBits(common::repeatAdd(0.0, c * 4096.0, 300000),
                       literalRepeat(0.0, c * 4096.0, 300000),
                       "dyadic run");
    }
}

TEST(RepeatAdd, TwoBankConflictFactor)
{
    // The simulator's L0 move cost under two bank groups, accumulated
    // over a deep nest: a non-dyadic addend crossing ~18 binades.
    for (const std::int64_t bytes : {512, 2048, 8192, 24576}) {
        const double load = static_cast<double>(bytes) / 64.0 * 1.08;
        for (const std::int64_t n : {1, 7, 4096, 250000}) {
            expectSameBits(common::repeatAdd(0.0, load, n),
                           literalRepeat(0.0, load, n), "1.08 run");
            expectSameBits(
                common::periodicAdd(0.0, load, load * 3.0 + 6.0, 16, n),
                literalPeriodic(0.0, load, load * 3.0 + 6.0, 16, n),
                "1.08 period");
        }
    }
}

TEST(RepeatAdd, TinyAndSubnormalValues)
{
    const double min_sub = std::numeric_limits<double>::denorm_min();
    const double min_norm = std::numeric_limits<double>::min();
    struct Case { double x, c; std::int64_t n; };
    const Case cases[] = {
        {0.0, min_sub, 100000},
        {0.0, 3.0 * min_sub, 100000},
        {min_norm - 5.0 * min_sub, min_sub, 100},
        {0.0, min_norm / 3.0, 100000},
        {min_norm, min_norm * 0.75, 100000},
        {1e-300, 1e-310, 100000},
        {1.0, min_sub, 10},
    };
    for (const Case &t : cases)
        expectSameBits(common::repeatAdd(t.x, t.c, t.n),
                       literalRepeat(t.x, t.c, t.n), "subnormal");
}

TEST(RepeatAdd, OtherInputsFallBackToTheLiteralLoop)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    struct Case { double x, c; std::int64_t n; };
    const Case cases[] = {
        {-1.0, 0.25, 100},   {3.0, -0.75, 100},   {-0.0, -0.0, 3},
        {-0.0, 0.0, 3},      {0.0, -0.0, 3},      {inf, 1.0, 5},
        {1.0, inf, 5},       {inf, -inf, 5},      {nan, 1.0, 5},
        {1.0, nan, 5},       {1.0, 2.0, 0},       {-0.0, 1.0, 0},
        {1.0, 2.0, -4},
    };
    for (const Case &t : cases)
        expectSameBits(common::repeatAdd(t.x, t.c, t.n),
                       literalRepeat(t.x, t.c, t.n), "fallback");
}

TEST(PeriodicAdd, EdgePeriodsAndCounts)
{
    const double a = 10.8; // a 1.08-scaled cycle count
    const double b = 1234.5678;
    for (const std::int64_t k : {1, 2, 3, 16, 1000})
        for (const std::int64_t T : {0, 1, 2, 15, 16, 17, 999, 1001, 65537})
            expectSameBits(common::periodicAdd(0.0, a, b, k, T),
                           literalPeriodic(0.0, a, b, k, T), "period");
    // A zero plain step, and both steps zero.
    expectSameBits(common::periodicAdd(0.0, 0.0, b, 7, 100000),
                   literalPeriodic(0.0, 0.0, b, 7, 100000), "a = 0");
    expectSameBits(common::periodicAdd(5.0, 0.0, 0.0, 7, 100000), 5.0,
                   "a = b = 0");
    // Periods too small to move a large accumulator.
    const double big = std::ldexp(1.0, 70);
    expectSameBits(common::periodicAdd(big, 1.0, 2.0, 3, 1000000), big,
                   "fixed point");
    // Negative and non-finite inputs take the literal loop.
    expectSameBits(common::periodicAdd(1.0, -0.5, 2.0, 3, 100),
                   literalPeriodic(1.0, -0.5, 2.0, 3, 100), "negative");
    expectSameBits(
        common::periodicAdd(1.0, 2.0,
                            std::numeric_limits<double>::infinity(), 3, 10),
        literalPeriodic(1.0, 2.0, std::numeric_limits<double>::infinity(),
                        3, 10),
        "inf");
}
