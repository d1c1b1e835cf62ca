/**
 * @file
 * Tests for the batched MOBO hardware sampler.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "accel/design_space.hh"
#include "common/crc64.hh"
#include "common/json.hh"
#include "core/mobo.hh"

using namespace unico;
using core::MoboHwSampler;

namespace {

accel::DesignSpace
makeSpace()
{
    accel::DesignSpace ds;
    ds.addAxis("a", {0, 1, 2, 3, 4, 5, 6, 7});
    ds.addAxis("b", {0, 1, 2, 3});
    ds.addAxis("c", {0, 1});
    return ds;
}

/** Smooth synthetic objectives over the normalized design vector. */
moo::Objectives
syntheticY(const accel::DesignSpace &ds, const accel::HwPoint &h)
{
    const auto x = ds.normalize(h);
    const double lat = 1.0 + 3.0 * (1.0 - x[0]) + x[1];
    const double pow = 1.0 + 2.0 * x[0] + x[2];
    const double area = 0.5 + x[0] + 0.5 * x[1];
    return {lat, pow, area};
}

/** Six axes with the spatial backend's sizes. */
accel::DesignSpace
makeSpatialShapedSpace()
{
    accel::DesignSpace ds;
    const std::size_t sizes[] = {16, 16, 12, 12, 2, 2};
    for (std::size_t a = 0; a < 6; ++a) {
        std::vector<double> values;
        for (std::size_t v = 0; v < sizes[a]; ++v)
            values.push_back(static_cast<double>(v));
        ds.addAxis(std::string(1, static_cast<char>('a' + a)),
                   std::move(values));
    }
    return ds;
}

/** Latency, power, area and sensitivity stand-ins; the first
 *  @p objectives of them are returned. */
moo::Objectives
spatialY(const accel::DesignSpace &ds, const accel::HwPoint &h,
         std::size_t objectives)
{
    const auto x = ds.normalize(h);
    moo::Objectives y = {
        1.0 + 4.0 * (1.0 - x[0]) * (1.0 - x[1]) + 0.5 * x[2] + 0.3 * x[4],
        0.5 + 2.0 * x[0] * x[1] + x[3] + 0.2 * x[5],
        0.2 + x[0] + x[1] + 0.8 * x[2] + 0.6 * x[3],
        std::sin(3.0 * x[2]) + std::cos(2.0 * x[3]) + x[4] * x[5],
    };
    y.resize(objectives);
    return y;
}

/** CRC-64 of every configuration proposed over 8 batches of N = 30,
 *  with every other sample marked high fidelity. */
std::uint64_t
proposalDigest(const core::MoboConfig &cfg, std::size_t objectives)
{
    const auto ds = makeSpatialShapedSpace();
    MoboHwSampler sampler(ds, objectives, 17, cfg);
    std::uint64_t crc = 0;
    for (int b = 0; b < 8; ++b) {
        const auto batch = sampler.sampleBatch(30);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            for (const std::size_t axis : batch[i]) {
                const std::uint64_t v = axis;
                crc = common::crc64(&v, sizeof v, crc);
            }
            sampler.observe(batch[i], spatialY(ds, batch[i], objectives),
                            i % 2 == 0);
        }
    }
    return crc;
}

/** CRC-64 of every configuration proposed over 14 batches of N = 8 on
 *  the 64-point makeSpace(), every sample high fidelity. The 240-point
 *  pools repeat points, batches repeat pool points, and after about
 *  eight batches every point has been seen, so each slot falls back to
 *  a random point and retries past the batch's duplicates. */
std::uint64_t
smallSpaceDigest()
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 29);
    std::uint64_t crc = 0;
    for (int b = 0; b < 14; ++b) {
        for (const auto &h : sampler.sampleBatch(8)) {
            for (const std::size_t axis : h) {
                const std::uint64_t v = axis;
                crc = common::crc64(&v, sizeof v, crc);
            }
            sampler.observe(h, syntheticY(ds, h), true);
        }
    }
    return crc;
}

/** Snapshot of a sampler on makeSpace() with a few observations. */
common::Json
savedState()
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 12);
    for (const auto &h : sampler.sampleBatch(6))
        sampler.observe(h, syntheticY(ds, h), true);
    return sampler.saveState();
}

/** @p state with field @p key of its first observation set to
 *  @p value. */
common::Json
withObservationField(common::Json state, const std::string &key,
                     common::Json value)
{
    const common::Json &old = state.at("observations");
    common::Json obs = common::Json::array();
    for (std::size_t i = 0; i < old.size(); ++i) {
        common::Json entry = old.at(i);
        if (i == 0)
            entry[key] = value;
        obs.push(std::move(entry));
    }
    state["observations"] = std::move(obs);
    return state;
}

/** @p state with kernel field @p key set to @p value. */
common::Json
withKernelField(common::Json state, const std::string &key,
                common::Json value)
{
    common::Json kernel = state.at("kernel");
    kernel[key] = std::move(value);
    state["kernel"] = std::move(kernel);
    return state;
}

common::Json
numbers(std::initializer_list<double> values)
{
    common::Json out = common::Json::array();
    for (const double v : values)
        out.push(v);
    return out;
}

/** restoreState(@p state) throws and leaves a sampler that already
 *  holds savedState() exactly as it was. */
void
expectRejected(const common::Json &state)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 1);
    sampler.restoreState(savedState());
    const std::string before = sampler.saveState().dump();
    EXPECT_THROW(sampler.restoreState(state), std::runtime_error);
    EXPECT_EQ(sampler.saveState().dump(), before);
}

} // namespace

TEST(Mobo, ProposalsMatchParent)
{
    // Digests recorded with a fresh GP fit per slot and a predict()
    // scan over the pool. The shared per-batch factor and the pruned,
    // blocked EI argmax must propose exactly the same configurations.
    core::MoboConfig mobohb;
    mobohb.randomFraction = 1.0 / 3.0;
    EXPECT_EQ(proposalDigest(core::MoboConfig{}, 4), 0x26c9c8c276dbe6dbULL);
    EXPECT_EQ(proposalDigest(mobohb, 4), 0x6e79f61344f7edb3ULL);
    EXPECT_EQ(proposalDigest(core::MoboConfig{}, 3), 0xb32c6a19c19ecb3fULL);
    // Pool, batch and seen-set deduplication and the random fallback.
    EXPECT_EQ(smallSpaceDigest(), 0x4a77839c0ec7642cULL);
}

TEST(Mobo, RefusesSpacesOf2Pow64PointsOrMore)
{
    // Points are deduplicated on their mixed-radix index, a uint64.
    const auto binary = [](int axes) {
        accel::DesignSpace ds;
        for (int a = 0; a < axes; ++a)
            ds.addAxis("a" + std::to_string(a), {0, 1});
        return ds;
    };
    const auto ds63 = binary(63);
    EXPECT_NO_THROW(MoboHwSampler(ds63, 2, 1));
    const auto ds64 = binary(64);
    EXPECT_THROW(MoboHwSampler(ds64, 2, 1), std::invalid_argument);
    accel::DesignSpace wide;
    for (int a = 0; a < 4; ++a)
        wide.addAxis("w" + std::to_string(a), std::vector<double>(65536, 0.0));
    EXPECT_THROW(MoboHwSampler(wide, 2, 1), std::invalid_argument);
}

TEST(Mobo, ColdStartSamplesRandomValidPoints)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 1);
    const auto batch = sampler.sampleBatch(8);
    ASSERT_EQ(batch.size(), 8u);
    for (const auto &h : batch)
        EXPECT_TRUE(ds.contains(h));
}

TEST(Mobo, BatchIsDeduplicated)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 2);
    const auto batch = sampler.sampleBatch(12);
    const std::set<accel::HwPoint> distinct(batch.begin(), batch.end());
    // The space has 64 points; 12 proposals should be mostly unique.
    EXPECT_GE(distinct.size(), 10u);
}

TEST(Mobo, ObserveUpdatesNormalizationBounds)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 3);
    sampler.observe({0, 0, 0}, {1.0, 10.0, 100.0}, true);
    sampler.observe({1, 1, 1}, {3.0, 30.0, 300.0}, true);
    const auto mid = sampler.normalize({2.0, 20.0, 200.0});
    EXPECT_DOUBLE_EQ(mid[0], 0.5);
    EXPECT_DOUBLE_EQ(mid[1], 0.5);
    EXPECT_DOUBLE_EQ(mid[2], 0.5);
    EXPECT_EQ(sampler.observations(), 2u);
}

TEST(Mobo, HighFidelityFlagToggles)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 4);
    sampler.observe({0, 0, 0}, {1, 1, 1}, false);
    EXPECT_EQ(sampler.highFidelityCount(), 0u);
    sampler.setHighFidelity(0, true);
    EXPECT_EQ(sampler.highFidelityCount(), 1u);
}

TEST(Mobo, GuidedSamplingConcentratesOnGoodRegion)
{
    // The synthetic objective strongly favors large x[0] for latency;
    // after observing the space, guided batches should prefer high
    // indices on axis 0 more than uniform sampling would.
    const auto ds = makeSpace();
    common::Rng rng(5);
    MoboHwSampler sampler(ds, 3, 5);
    for (int i = 0; i < 40; ++i) {
        const auto h = ds.randomPoint(rng);
        sampler.observe(h, syntheticY(ds, h), true);
    }
    const auto batch = sampler.sampleBatch(16);
    double mean_axis0 = 0.0;
    for (const auto &h : batch)
        mean_axis0 += static_cast<double>(h[0]);
    mean_axis0 /= static_cast<double>(batch.size());
    // Uniform would average 3.5; EI-guided proposals (with ParEGO
    // weight diversity) should lean toward the top half on average.
    EXPECT_GT(mean_axis0, 3.0);
}

TEST(Mobo, SampleBatchAvoidsSeenPoints)
{
    accel::DesignSpace ds;
    ds.addAxis("a", {0, 1, 2, 3});
    MoboHwSampler sampler(ds, 3, 6);
    // Observe with high fidelity so the guided path engages once
    // enough data exists; with <4 points it stays random but still
    // retries against duplicates within the batch.
    sampler.observe({0}, {1, 1, 1}, true);
    sampler.observe({1}, {2, 2, 2}, true);
    const auto batch = sampler.sampleBatch(2);
    EXPECT_EQ(batch.size(), 2u);
}

TEST(Mobo, FullRandomFractionBypassesModel)
{
    const auto ds = makeSpace();
    core::MoboConfig cfg;
    cfg.randomFraction = 1.0;
    MoboHwSampler sampler(ds, 3, 8, cfg);
    // Even with plenty of high-fidelity data, sampling stays uniform
    // (and therefore cannot crash on the GP path).
    common::Rng rng(8);
    for (int i = 0; i < 30; ++i) {
        const auto h = ds.randomPoint(rng);
        sampler.observe(h, syntheticY(ds, h), true);
    }
    const auto batch = sampler.sampleBatch(16);
    EXPECT_EQ(batch.size(), 16u);
    for (const auto &h : batch)
        EXPECT_TRUE(ds.contains(h));
}

TEST(Mobo, GpFitFailureDegradesToSpaceFilling)
{
    // NaN objectives poison the GP targets: the fit produces a
    // non-finite posterior, and proposeOne must fall back to random
    // (space-filling) proposals instead of aborting — counted in
    // gpFallbacks() for the driver's fault stats.
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 5);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto seedBatch = sampler.sampleBatch(8);
    // Finite observations establish finite ideal/nadir bounds; the
    // NaN observations then survive normalization (span > 0) and
    // poison the ParEGO scalarization targets.
    for (std::size_t i = 0; i < seedBatch.size(); ++i) {
        if (i < 4)
            sampler.observe(seedBatch[i], syntheticY(ds, seedBatch[i]),
                            true);
        else
            sampler.observe(seedBatch[i], {nan, nan, nan}, true);
    }

    EXPECT_EQ(sampler.gpFallbacks(), 0u);
    const auto batch = sampler.sampleBatch(8);
    ASSERT_EQ(batch.size(), 8u);
    for (const auto &h : batch)
        EXPECT_TRUE(ds.contains(h));
    EXPECT_GT(sampler.gpFallbacks(), 0u);
}

TEST(Mobo, HealthyFitDoesNotCountFallbacks)
{
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 6);
    const auto seedBatch = sampler.sampleBatch(8);
    for (const auto &h : seedBatch)
        sampler.observe(h, syntheticY(ds, h), true);
    sampler.sampleBatch(8);
    EXPECT_EQ(sampler.gpFallbacks(), 0u);
}

TEST(Mobo, RestoreRoundTripsSavedState)
{
    const common::Json state = savedState();
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 1);
    sampler.restoreState(state);
    EXPECT_EQ(sampler.saveState().dump(), state.dump());

    // The restored sampler proposes what the uninterrupted one does,
    // so restoreState() rebuilt the seen points as well: past the
    // space's 64 points, every slot skips them all and falls back.
    MoboHwSampler straight(ds, 3, 12);
    for (const auto &h : straight.sampleBatch(6))
        straight.observe(h, syntheticY(ds, h), true);
    for (int b = 0; b < 9; ++b) {
        const auto want = straight.sampleBatch(8);
        ASSERT_EQ(sampler.sampleBatch(8), want) << "batch " << b;
        for (const auto &h : want) {
            straight.observe(h, syntheticY(ds, h), true);
            sampler.observe(h, syntheticY(ds, h), true);
        }
    }
}

TEST(Mobo, RestoreRejectsPointOutsideSpace)
{
    // An axis index past its values, and more indices than axes.
    expectRejected(
        withObservationField(savedState(), "h", numbers({0, 0, 2})));
    expectRejected(withObservationField(
        savedState(), "h", numbers({0, 0, 0, 0, 0, 0, 0, 0, 0, 0})));
}

TEST(Mobo, RestoreRejectsWrongObjectiveCount)
{
    expectRejected(withObservationField(savedState(), "y", numbers({1.0})));
}

TEST(Mobo, RestoreRejectsUnknownKernelKind)
{
    // 1 is the Matérn-5/2; 0 was the retired squared exponential.
    for (const int kind : {0, 7, -1})
        expectRejected(withKernelField(savedState(), "kind", kind));
}

TEST(Mobo, RestoreRejectsBadLengthscale)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double l : {0.0, -0.3, nan})
        expectRejected(withKernelField(savedState(), "lengthscale", l));
}

TEST(Mobo, RestoreRejectsBadVariance)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const double v : {0.0, -1.0, inf})
        expectRejected(withKernelField(savedState(), "variance", v));
}

TEST(Mobo, RestoreRejectsBadNoise)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double v : {-1e-4, nan})
        expectRejected(withKernelField(savedState(), "noise", v));
}

TEST(Mobo, RestoreRejectsArdLengthscales)
{
    // The kernel has one shared lengthscale, so "ard" must be an empty
    // array: any entries are rejected, even one valid lengthscale per
    // axis of makeSpace(), and so is anything that is not an array.
    expectRejected(withKernelField(savedState(), "ard", numbers({0.3})));
    expectRejected(
        withKernelField(savedState(), "ard", numbers({0.3, 0.3, 0.3})));
    expectRejected(withKernelField(savedState(), "ard", 0.3));
    expectRejected(withKernelField(savedState(), "ard", "[]"));
    expectRejected(
        withKernelField(savedState(), "ard", common::Json::object()));
    expectRejected(withKernelField(savedState(), "ard", common::Json()));
}

TEST(Mobo, SavedKernelStateMatchesParent)
{
    // The kernel state's bytes, recorded before the ARD fit and the
    // squared-exponential kernel were deleted: checkpoints keep
    // "kind": 1 and an empty "ard", so old and new files read alike.
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 12);
    for (int b = 0; b < 2; ++b)
        for (const auto &h : sampler.sampleBatch(b == 0 ? 6 : 8))
            sampler.observe(h, syntheticY(ds, h), true);
    const common::Json state = sampler.saveState();
    EXPECT_TRUE(state.at("kernelTuned").asBool());
    EXPECT_EQ(state.at("kernel").dump(),
              "{\"ard\":[],\"kind\":1,\"lengthscale\":0.20000000000000001,"
              "\"noise\":0.0001,\"variance\":1}");
}

TEST(Mobo, WriteStateStreamsSaveStatesDocument)
{
    // Checkpoints stream the sampler through writeState(); its text
    // must be saveState()'s dump, compact or pretty, and a cache kept
    // across calls (observations only grow, flags set before the
    // next call) must print what a fresh one does.
    const auto ds = makeSpace();
    MoboHwSampler sampler(ds, 3, 21);
    common::JsonArrayCache cache;
    for (int trial = 0; trial < 4; ++trial) {
        const auto batch = sampler.sampleBatch(5);
        for (const auto &h : batch)
            sampler.observe(h, syntheticY(ds, h), false);
        sampler.setHighFidelity(sampler.observations() - 1, true);
        for (const int indent : {0, 2}) {
            std::string fresh;
            common::JsonWriter w(fresh, indent);
            common::JsonArrayCache none;
            sampler.writeState(w, none);
            EXPECT_EQ(fresh, sampler.saveState().dump(indent));
        }
        std::string cached;
        common::JsonWriter w(cached, 2);
        sampler.writeState(w, cache);
        EXPECT_EQ(cached, sampler.saveState().dump(2)) << "trial " << trial;
        EXPECT_EQ(cache.size(), sampler.observations());
    }
}
