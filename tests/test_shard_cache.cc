/**
 * @file
 * Tests for the sharded evaluation cache: LRU/stats mechanics,
 * fingerprint stability and uniqueness, thread safety, and — the
 * non-negotiable contract — bit-identical co-search results with the
 * cache on or off, under any thread count, fault injection and
 * checkpoint/resume. The cycle-level (ascend) backend is the one
 * that memoizes; the spatial backend queries its analytical model
 * directly and must leave a cache it is handed untouched.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "accel/ascend.hh"
#include "camodel/cube_mapping.hh"
#include "camodel/simulator.hh"
#include "common/fault.hh"
#include "common/rng.hh"
#include "common/shard_cache.hh"
#include "core/ascend_env.hh"
#include "core/backend.hh"
#include "core/driver.hh"
#include "core/fault_env.hh"
#include "mapping/engine.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using common::Fingerprint;
using common::FingerprintBuilder;
using core::AscendEnv;
using core::BackendOptions;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;

namespace {

DriverConfig
tinyConfig(DriverConfig cfg)
{
    cfg.batchSize = 6;
    cfg.maxIter = 2;
    cfg.sh.bMax = 32;
    cfg.minBudgetPerRound = 4;
    cfg.workers = 2;
    cfg.seed = 11;
    return cfg;
}

CoSearchResult
runAscend(accel::EvalCache *cache, DriverConfig cfg,
          common::FaultSpec faults = common::FaultSpec{})
{
    BackendOptions opt;
    opt.maxShapesPerNetwork = 2;
    opt.cache = cache;
    AscendEnv env({workload::makeNetwork("fsrcnn_120x320")}, opt);
    if (faults.active()) {
        core::FaultyEnv faulty(env, common::FaultPlan(faults));
        return CoOptimizer(faulty, cfg).run();
    }
    return CoOptimizer(env, cfg).run();
}

/** Field-exact (bit-level) equality of two search outcomes. */
void
expectIdentical(const CoSearchResult &a, const CoSearchResult &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].hw, b.records[i].hw);
        EXPECT_EQ(a.records[i].ppa.latencyMs, b.records[i].ppa.latencyMs);
        EXPECT_EQ(a.records[i].ppa.powerMw, b.records[i].ppa.powerMw);
        EXPECT_EQ(a.records[i].ppa.areaMm2, b.records[i].ppa.areaMm2);
        EXPECT_EQ(a.records[i].ppa.energyMj, b.records[i].ppa.energyMj);
        EXPECT_EQ(a.records[i].sensitivity, b.records[i].sensitivity);
        EXPECT_EQ(a.records[i].budgetSpent, b.records[i].budgetSpent);
        EXPECT_EQ(a.records[i].constraintOk, b.records[i].constraintOk);
        EXPECT_EQ(a.records[i].fullySearched,
                  b.records[i].fullySearched);
        EXPECT_EQ(a.records[i].highFidelity, b.records[i].highFidelity);
        EXPECT_EQ(a.records[i].faults, b.records[i].faults);
        EXPECT_EQ(a.records[i].degraded, b.records[i].degraded);
        EXPECT_EQ(a.records[i].penalized, b.records[i].penalized);
    }
    ASSERT_EQ(a.front.size(), b.front.size());
    const auto &ea = a.front.entries();
    const auto &eb = b.front.entries();
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].id, eb[i].id);
        EXPECT_EQ(ea[i].objectives, eb[i].objectives); // bit-exact
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].hours, b.trace[i].hours);
        EXPECT_EQ(a.trace[i].front, b.trace[i].front);
    }
    EXPECT_EQ(a.totalHours, b.totalHours);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

} // namespace

// --- Cache mechanics ----------------------------------------------------

TEST(ShardCache, GetMissThenPutThenHit)
{
    accel::EvalCache cache(1 << 20);
    const Fingerprint key = FingerprintBuilder().add(1).fingerprint();
    EXPECT_FALSE(cache.get(key).has_value());
    accel::CachedEval e;
    e.loss = 42.0;
    e.seconds = 2.0;
    cache.put(key, e);
    const auto hit = cache.get(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->loss, 42.0);
    EXPECT_EQ(hit->seconds, 2.0);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ShardCache, LruEvictsOldestAtTinyCapacity)
{
    // One shard so the LRU order is global; room for exactly 2
    // entries.
    accel::EvalCache cache(2 * accel::EvalCache::entryBytes(), 1);
    const auto key = [](int i) {
        return FingerprintBuilder().add(i).fingerprint();
    };
    accel::CachedEval e;
    cache.put(key(1), e);
    cache.put(key(2), e);
    EXPECT_TRUE(cache.get(key(1)).has_value()); // 1 is now MRU
    cache.put(key(3), e);                       // evicts 2
    EXPECT_TRUE(cache.get(key(1)).has_value());
    EXPECT_FALSE(cache.get(key(2)).has_value());
    EXPECT_TRUE(cache.get(key(3)).has_value());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(ShardCache, ZeroCapacityNeverStores)
{
    accel::EvalCache cache(0);
    const Fingerprint key = FingerprintBuilder().add(9).fingerprint();
    cache.put(key, accel::CachedEval{});
    EXPECT_FALSE(cache.get(key).has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ShardCache, ClearDropsEntriesKeepsCounters)
{
    accel::EvalCache cache(1 << 20);
    const Fingerprint key = FingerprintBuilder().add(5).fingerprint();
    cache.put(key, accel::CachedEval{});
    ASSERT_TRUE(cache.get(key).has_value());
    cache.clear();
    EXPECT_FALSE(cache.get(key).has_value());
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ShardCache, ConcurrentGetPutIsSafeAndLosesNothingLogically)
{
    accel::EvalCache cache(8 << 20);
    constexpr int kThreads = 8;
    constexpr int kOps = 2000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            for (int i = 0; i < kOps; ++i) {
                const Fingerprint key = FingerprintBuilder()
                                            .add(i % 257)
                                            .fingerprint();
                accel::CachedEval e;
                e.loss = static_cast<double>(i % 257);
                cache.put(key, e);
                const auto hit = cache.get(key);
                if (hit.has_value() &&
                    hit->loss != static_cast<double>(i % 257))
                    ADD_FAILURE() << "corrupt value from thread " << t;
            }
        });
    }
    for (auto &w : workers)
        w.join();
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 257u);
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(ShardCache, StatsExposePerShardEvictions)
{
    accel::EvalCache cache(2 * accel::EvalCache::entryBytes(), 1);
    const auto key = [](int i) {
        return FingerprintBuilder().add(i).fingerprint();
    };
    for (int i = 0; i < 4; ++i)
        cache.put(key(i), accel::CachedEval{});
    const auto stats = cache.stats();
    ASSERT_EQ(stats.shardEvictions.size(), 1u);
    EXPECT_EQ(stats.shardEvictions[0], stats.evictions);
    EXPECT_EQ(stats.evictions, 2u);
}

// --- Fingerprints -------------------------------------------------------

TEST(ShardCache, FingerprintIsStableAcrossRecomputation)
{
    const auto op = workload::TensorOp::gemm("a", 64, 32, 28);
    EXPECT_EQ(op.fingerprint(), op.fingerprint());

    common::Rng rng(3);
    const camodel::CubeMappingSpace space(op);
    const camodel::CubeMapping m = space.random(rng);
    EXPECT_EQ(m.fingerprint(), m.fingerprint());

    EXPECT_EQ(accel::CubeHwConfig::expertDefault().fingerprint(),
              accel::CubeHwConfig::expertDefault().fingerprint());
}

TEST(ShardCache, FingerprintIgnoresOpNameButNotShape)
{
    const auto a = workload::TensorOp::conv("a", 64, 32, 28, 28, 3, 3);
    const auto b = workload::TensorOp::conv("b", 64, 32, 28, 28, 3, 3);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    const auto c = workload::TensorOp::conv("a", 64, 32, 28, 28, 1, 1);
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(ShardCache, DistinctInputsYieldDistinctFingerprints)
{
    // Every decodable HW point of the cube space must have a unique
    // fingerprint (sampled subset).
    const accel::AscendDesignSpace space;
    common::Rng rng(17);
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    std::set<std::string> described;
    for (int i = 0; i < 500; ++i) {
        const auto hw = space.decode(space.space().randomPoint(rng));
        const auto fp = hw.fingerprint();
        if (described.insert(hw.describe()).second) {
            EXPECT_TRUE(seen.insert({fp.hi, fp.lo}).second)
                << "collision at " << hw.describe();
        }
    }

    // Distinct mappings of one op get distinct fingerprints.
    const auto op = workload::TensorOp::gemm("c", 384, 512, 256);
    const camodel::CubeMappingSpace mspace(op);
    std::set<std::pair<std::uint64_t, std::uint64_t>> mseen;
    std::set<std::string> mdescribed;
    for (int i = 0; i < 500; ++i) {
        const auto m = mspace.random(rng);
        const auto fp = m.fingerprint();
        if (mdescribed.insert(m.describe()).second) {
            EXPECT_TRUE(mseen.insert({fp.hi, fp.lo}).second)
                << "collision at " << m.describe();
        }
    }
}

TEST(ShardCache, TechRungsNeverShareKeys)
{
    const auto op = workload::TensorOp::gemm("g", 64, 64, 64);
    const camodel::CycleAccurateModel cycle;
    const camodel::CycleAccurateModel degraded = cycle.degraded();
    const auto chw = accel::CubeHwConfig::expertDefault();
    EXPECT_NE(cycle.queryFingerprint(op, chw),
              degraded.queryFingerprint(op, chw));
}

// --- Cached model evaluation --------------------------------------------

namespace {

/** Every field of @p a and @p b, bit for bit. */
void
expectSameEval(const mapping::MappingEval &a, const mapping::MappingEval &b)
{
    EXPECT_EQ(a.ppa.latencyMs, b.ppa.latencyMs);
    EXPECT_EQ(a.ppa.powerMw, b.ppa.powerMw);
    EXPECT_EQ(a.ppa.areaMm2, b.ppa.areaMm2);
    EXPECT_EQ(a.ppa.energyMj, b.ppa.energyMj);
    EXPECT_EQ(a.ppa.feasible, b.ppa.feasible);
    EXPECT_EQ(a.loss, b.loss);
    EXPECT_EQ(a.fidelity, b.fidelity);
    EXPECT_EQ(a.seconds, b.seconds);
}

} // namespace

TEST(ShardCache, CycleLevelCachedEvaluateReplaysSeconds)
{
    const camodel::CycleAccurateModel model;
    const auto op = workload::TensorOp::gemm("g", 128, 128, 128);
    const auto hw = accel::CubeHwConfig::expertDefault();
    const auto prep = model.prepare(op, hw);
    const camodel::CubeMappingSpace space(op);
    common::Rng rng(6);
    accel::EvalCache cache(1 << 20);
    for (int i = 0; i < 8; ++i) {
        const auto m = space.random(rng);
        camodel::SimStats stats;
        const accel::Ppa plain = model.evaluate(op, hw, m, &stats);
        const double plain_secs = model.nominalEvalSeconds(stats);
        const mapping::MappingEval miss =
            mapping::cachedEvaluate(&cache, prep.context, m, [&] {
                camodel::SimStats s;
                const accel::Ppa ppa = model.evaluate(prep, m, &s);
                return mapping::latencyEval(ppa,
                                            model.nominalEvalSeconds(s));
            });
        // A hit returns the miss's eval, seconds included, without
        // running the simulator again.
        const mapping::MappingEval hit =
            mapping::cachedEvaluate(&cache, prep.context, m, [] {
                ADD_FAILURE() << "a cache hit recomputed";
                return mapping::MappingEval{};
            });
        expectSameEval(miss, mapping::latencyEval(plain, plain_secs));
        expectSameEval(hit, miss);
    }
}

// --- End-to-end determinism ---------------------------------------------

TEST(ShardCache, CoSearchBitIdenticalCacheOnVsOff)
{
    const auto cfg = tinyConfig(DriverConfig::unico());
    accel::EvalCache cache(64 << 20);
    const CoSearchResult with = runAscend(&cache, cfg);
    const CoSearchResult without = runAscend(nullptr, cfg);
    expectIdentical(with, without);
    EXPECT_GT(with.cacheStats.hits, 0u);
    EXPECT_GT(with.cacheStats.hitRate(), 0.0);
    EXPECT_EQ(without.cacheStats.hits + without.cacheStats.misses, 0u);
}

TEST(ShardCache, CoSearchIdenticalAcrossThreadCounts)
{
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.realThreads = 1;
    accel::EvalCache c1(64 << 20);
    const CoSearchResult r1 = runAscend(&c1, cfg);
    cfg.realThreads = 2;
    accel::EvalCache c2(64 << 20);
    const CoSearchResult r2 = runAscend(&c2, cfg);
    cfg.realThreads = 8;
    accel::EvalCache c8(64 << 20);
    const CoSearchResult r8 = runAscend(&c8, cfg);
    expectIdentical(r1, r2);
    expectIdentical(r1, r8);
    EXPECT_GT(r8.cacheStats.hits, 0u);
}

TEST(ShardCache, CoSearchWithFaultsBitIdenticalCacheOnVsOff)
{
    // The cache sits below fault injection, so even a faulty run must
    // be trajectory-identical with the cache on or off.
    const auto cfg = tinyConfig(DriverConfig::unico());
    common::FaultSpec faults;
    faults.transientRate = 0.08;
    faults.corruptRate = 0.05;
    faults.seed = 23;
    accel::EvalCache cache(64 << 20);
    const CoSearchResult with = runAscend(&cache, cfg, faults);
    const CoSearchResult without = runAscend(nullptr, cfg, faults);
    expectIdentical(with, without);
    EXPECT_EQ(with.faults.transient, without.faults.transient);
    EXPECT_EQ(with.faults.corrupt, without.faults.corrupt);
    EXPECT_GT(with.cacheStats.hits, 0u);
}

TEST(ShardCache, CheckpointResumeWithFreshCacheMatchesStraightRun)
{
    const std::string path =
        testing::TempDir() + "unico_cache_resume.json";
    std::remove(path.c_str());

    auto full_cfg = tinyConfig(DriverConfig::unico());
    accel::EvalCache c_full(64 << 20);
    const CoSearchResult full = runAscend(&c_full, full_cfg);

    // Run the first iteration with one cache, then resume with a
    // fresh (cold) cache: the checkpoint carries no cache state, so
    // the outcome must still match the uninterrupted run.
    auto part_cfg = full_cfg;
    part_cfg.maxIter = 1;
    part_cfg.checkpointPath = path;
    accel::EvalCache c_part(64 << 20);
    runAscend(&c_part, part_cfg);

    auto resume_cfg = full_cfg;
    resume_cfg.checkpointPath = path;
    resume_cfg.resumeFromCheckpoint = true;
    accel::EvalCache c_resume(64 << 20);
    const CoSearchResult resumed = runAscend(&c_resume, resume_cfg);

    expectIdentical(full, resumed);
    EXPECT_GT(c_resume.stats().hits, 0u);
    std::remove(path.c_str());
}

TEST(ShardCache, SpatialBackendLeavesAGivenCacheUntouched)
{
    // The spatial backend queries its analytical model directly, so a
    // cache handed to it through BackendOptions changes nothing and
    // sees no lookup.
    const auto cfg = tinyConfig(DriverConfig::unico());
    const auto run = [&cfg](accel::EvalCache *cache) {
        core::BackendOptions opt;
        opt.maxShapesPerNetwork = 2;
        opt.cache = cache;
        const auto env = core::makeBackendEnv(
            "spatial", {workload::makeMobileNet()}, opt);
        EXPECT_EQ(env->evalCache(), nullptr);
        return CoOptimizer(*env, cfg).run();
    };
    accel::EvalCache cache(64 << 20);
    const CoSearchResult with = run(&cache);
    const CoSearchResult without = run(nullptr);
    expectIdentical(with, without);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
}
