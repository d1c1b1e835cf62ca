/**
 * @file
 * Tests for JSON checkpoint/resume of the co-search driver: document
 * round-trips, config-fingerprint guarding, and the core contract
 * that a search killed after k trials and resumed reproduces the
 * straight-through run bit-for-bit — with and without injected
 * faults.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "common/fault.hh"
#include "core/backend.hh"
#include "core/checkpoint.hh"
#include "core/driver.hh"
#include "core/fault_env.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

#include "checkpoint_oracle.hh"

using namespace unico;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;
using core::SearchCheckpoint;
using core::SpatialEnv;
using core::BackendOptions;

namespace {

SpatialEnv &
sharedEnv()
{
    static SpatialEnv env = [] {
        BackendOptions opt;
        opt.maxShapesPerNetwork = 2;
        return SpatialEnv({workload::makeMobileNet()}, opt);
    }();
    return env;
}

DriverConfig
tinyConfig(DriverConfig cfg)
{
    cfg.batchSize = 8;
    cfg.maxIter = 4;
    cfg.sh.bMax = 48;
    cfg.minBudgetPerRound = 4;
    cfg.workers = 2;
    cfg.seed = 11;
    return cfg;
}

/** Unique-ish temp path per test (ctest runs tests in one process). */
std::string
tmpPath(const std::string &tag)
{
    return testing::TempDir() + "unico_ck_" + tag + ".json";
}

void
expectIdentical(const CoSearchResult &a, const CoSearchResult &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].hw, b.records[i].hw);
        EXPECT_EQ(a.records[i].ppa.latencyMs,
                  b.records[i].ppa.latencyMs);
        EXPECT_EQ(a.records[i].ppa.powerMw, b.records[i].ppa.powerMw);
        EXPECT_EQ(a.records[i].sensitivity, b.records[i].sensitivity);
        EXPECT_EQ(a.records[i].budgetSpent, b.records[i].budgetSpent);
        EXPECT_EQ(a.records[i].highFidelity, b.records[i].highFidelity);
    }
    ASSERT_EQ(a.front.size(), b.front.size());
    const auto &ea = a.front.entries();
    const auto &eb = b.front.entries();
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].id, eb[i].id);
        EXPECT_EQ(ea[i].objectives, eb[i].objectives); // bit-exact
    }
    EXPECT_EQ(a.totalHours, b.totalHours);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

} // namespace

TEST(Checkpoint, LoadMissingFileReturnsNullopt)
{
    EXPECT_FALSE(
        core::loadCheckpointFile(tmpPath("missing")).has_value());
}

TEST(Checkpoint, MalformedFileThrows)
{
    const std::string path = tmpPath("malformed");
    std::ofstream(path) << "{ not json";
    EXPECT_THROW(core::loadCheckpointFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Checkpoint, FingerprintSensitiveToSearchParameters)
{
    const auto base = tinyConfig(DriverConfig::unico());
    auto other = base;
    other.seed = base.seed + 1;
    EXPECT_NE(core::configFingerprint(base),
              core::configFingerprint(other));
    other = base;
    other.batchSize += 1;
    EXPECT_NE(core::configFingerprint(base),
              core::configFingerprint(other));
    // maxIter is deliberately NOT part of the fingerprint: a killed
    // run resumes under a larger trial count.
    other = base;
    other.maxIter += 10;
    EXPECT_EQ(core::configFingerprint(base),
              core::configFingerprint(other));
}

TEST(Checkpoint, ConfigKeyMatchesParent)
{
    // Keys recorded before the ARD flag and the backoff fields left
    // DriverConfig: the retired flag's slot stays a literal 0 and the
    // backoff constants print as the fields did, so checkpoints written
    // by either build resume under the other.
    EXPECT_EQ(core::configFingerprint(DriverConfig::unico()),
              "UNICO|30|300|2|0.5|0.15|msh|high-fidelity|1|0.05|0|0|8|8|"
              "0x0000000000000001|3|5|60|2");
    EXPECT_EQ(core::configFingerprint(DriverConfig::hascoLike()),
              "HASCO|30|300|2|0.5|0.15|full|champion|0|0.05|0|0|8|8|"
              "0x0000000000000001|3|5|60|2");
    EXPECT_EQ(core::configFingerprint(DriverConfig::mobohbLike()),
              "MOBOHB|30|300|2|0.5|0.15|hyperband|all|0|0.05|0.333333|0|8|"
              "8|0x0000000000000001|3|5|60|2");
}

TEST(Checkpoint, DriverWritesAfterEveryIteration)
{
    const std::string path = tmpPath("writes");
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 2;
    cfg.checkpointPath = path;
    CoOptimizer opt(sharedEnv(), cfg);
    opt.run();
    const auto ck = core::loadCheckpointFile(path);
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->completedIterations, 2);
    EXPECT_EQ(ck->configKey, core::configFingerprint(cfg));
    EXPECT_EQ(ck->result.records.size(), 16u);
    EXPECT_GT(ck->clockSeconds, 0.0);
    std::remove(path.c_str());
}

TEST(Checkpoint, DocumentRoundTripsThroughJson)
{
    const std::string path = tmpPath("roundtrip");
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 2;
    cfg.checkpointPath = path;
    CoOptimizer opt(sharedEnv(), cfg);
    opt.run();
    const auto ck = core::loadCheckpointFile(path);
    ASSERT_TRUE(ck.has_value());
    // Serialize the loaded checkpoint again: identical document.
    const auto round = core::checkpointFromJson(oracle::toJson(*ck));
    EXPECT_EQ(oracle::toJson(round).dump(2), oracle::toJson(*ck).dump(2));
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeRefusesForeignConfig)
{
    const std::string path = tmpPath("foreign");
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    cfg.checkpointPath = path;
    CoOptimizer first(sharedEnv(), cfg);
    first.run();

    auto other = cfg;
    other.seed = cfg.seed + 99;
    other.resumeFromCheckpoint = true;
    CoOptimizer second(sharedEnv(), other);
    EXPECT_THROW(second.run(), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Checkpoint, KillAndResumeReproducesStraightRun)
{
    // "Kill after 2 of 4 trials" is simulated by running to
    // maxIter = 2 with checkpointing on, then resuming to 4.
    auto cfg = tinyConfig(DriverConfig::unico());
    CoOptimizer straight(sharedEnv(), cfg);
    const CoSearchResult full = straight.run();

    const std::string path = tmpPath("resume");
    auto part = cfg;
    part.maxIter = 2;
    part.checkpointPath = path;
    CoOptimizer first(sharedEnv(), part);
    first.run();

    auto rest = cfg; // back to maxIter = 4
    rest.checkpointPath = path;
    rest.resumeFromCheckpoint = true;
    CoOptimizer second(sharedEnv(), rest);
    const CoSearchResult resumed = second.run();

    expectIdentical(full, resumed);
    std::remove(path.c_str());
}

TEST(Checkpoint, KillAndResumeUnderFaultInjection)
{
    // The same contract must hold with a fault storm active: the
    // fault pattern is a pure function of (plan seed, run seed, eval
    // index), so recovery decisions replay identically after resume.
    common::FaultSpec spec;
    spec.transientRate = 0.1;
    spec.hangRate = 0.05;
    spec.corruptRate = 0.05;
    spec.seed = 77;

    auto cfg = tinyConfig(DriverConfig::unico());
    core::FaultyEnv env_a(sharedEnv(), common::FaultPlan(spec));
    CoOptimizer straight(env_a, cfg);
    const CoSearchResult full = straight.run();

    const std::string path = tmpPath("resume_faulty");
    auto part = cfg;
    part.maxIter = 2;
    part.checkpointPath = path;
    core::FaultyEnv env_b(sharedEnv(), common::FaultPlan(spec));
    CoOptimizer first(env_b, part);
    first.run();

    auto rest = cfg;
    rest.checkpointPath = path;
    rest.resumeFromCheckpoint = true;
    core::FaultyEnv env_c(sharedEnv(), common::FaultPlan(spec));
    CoOptimizer second(env_c, rest);
    const CoSearchResult resumed = second.run();

    expectIdentical(full, resumed);
    // Fault counters are part of the checkpointed state, so the
    // resumed totals match the straight run's.
    EXPECT_EQ(full.faults.total(), resumed.faults.total());
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeWithoutFileStartsFresh)
{
    // --resume with no checkpoint on disk must behave like a fresh
    // run (first launch of a to-be-checkpointed search).
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 2;
    CoOptimizer plain(sharedEnv(), cfg);
    const CoSearchResult expected = plain.run();

    const std::string path = tmpPath("fresh");
    std::remove(path.c_str());
    auto rcfg = cfg;
    rcfg.checkpointPath = path;
    rcfg.resumeFromCheckpoint = true;
    CoOptimizer resumed(sharedEnv(), rcfg);
    expectIdentical(expected, resumed.run());
    std::remove(path.c_str());
}

namespace {

/** Tiny checkpoint document with a recognizable iteration count. */
SearchCheckpoint
stubCheckpoint(int completed)
{
    SearchCheckpoint ck;
    ck.configKey = "stub-config";
    ck.completedIterations = completed;
    ck.clockSeconds = 1.5 * completed;
    ck.samplerState = common::Json::object();
    return ck;
}

/** stubCheckpoint()'s document text. */
std::string
stubDocument(int completed)
{
    return oracle::checkpointDocument(stubCheckpoint(completed));
}

void
removeRotation(const std::string &path, int keep)
{
    for (int n = 0; n < keep + 2; ++n)
        std::remove(core::rotatedCheckpointPath(path, n).c_str());
}

} // namespace

TEST(CheckpointDurability, SaveReportsTypedStatus)
{
    const std::string path = tmpPath("typed");
    const auto ok = core::saveCheckpointFile(path, stubDocument(1));
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    EXPECT_TRUE(ok.message.empty());
    std::remove(path.c_str());

    // Unwritable destination: failure with a reason, not a bare bool.
    const auto bad = core::saveCheckpointFile(
        "/nonexistent_dir_unico/ck.json", stubDocument(1));
    EXPECT_FALSE(bad.ok());
    EXPECT_FALSE(bad.message.empty());
}

TEST(CheckpointDurability, CrcTrailerDetectsBitFlip)
{
    const std::string path = tmpPath("bitflip");
    ASSERT_TRUE(core::saveCheckpointFile(path, stubDocument(3)));
    ASSERT_TRUE(core::loadCheckpointFile(path).has_value());

    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream oss;
        oss << in.rdbuf();
        bytes = oss.str();
    }
    bytes[bytes.size() / 3] ^= 0x04;
    std::ofstream(path, std::ios::binary) << bytes;
    EXPECT_THROW(core::loadCheckpointFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(CheckpointDurability, CrcTrailerDetectsTruncation)
{
    const std::string path = tmpPath("trunc");
    ASSERT_TRUE(core::saveCheckpointFile(path, stubDocument(3)));
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream oss;
        oss << in.rdbuf();
        bytes = oss.str();
    }
    // Torn write: half the document, no trailer.
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
    EXPECT_THROW(core::loadCheckpointFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(CheckpointDurability, LegacyFileWithoutTrailerIsRejected)
{
    const std::string path = tmpPath("notrailer");
    std::ofstream(path) << "{\n  \"version\": 2\n}\n";
    EXPECT_THROW(core::loadCheckpointFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(CheckpointRotation, PathNaming)
{
    EXPECT_EQ(core::rotatedCheckpointPath("ck.json", 0), "ck.json");
    EXPECT_EQ(core::rotatedCheckpointPath("ck.json", 1), "ck.json.1");
    EXPECT_EQ(core::rotatedCheckpointPath("ck.json", 2), "ck.json.2");
}

TEST(CheckpointRotation, KeepsLastKGenerations)
{
    const std::string path = tmpPath("rotate");
    removeRotation(path, 3);
    for (int i = 1; i <= 5; ++i)
        ASSERT_TRUE(
            core::saveCheckpointRotated(path, stubDocument(i), 3));

    // Window holds saves 5, 4, 3 — save 2 fell off the end.
    const auto g0 = core::loadCheckpointFile(path);
    const auto g1 =
        core::loadCheckpointFile(core::rotatedCheckpointPath(path, 1));
    const auto g2 =
        core::loadCheckpointFile(core::rotatedCheckpointPath(path, 2));
    ASSERT_TRUE(g0 && g1 && g2);
    EXPECT_EQ(g0->completedIterations, 5);
    EXPECT_EQ(g1->completedIterations, 4);
    EXPECT_EQ(g2->completedIterations, 3);
    EXPECT_FALSE(core::loadCheckpointFile(
                     core::rotatedCheckpointPath(path, 3))
                     .has_value());
    removeRotation(path, 3);
}

TEST(CheckpointRotation, KeepOneDisablesRotation)
{
    const std::string path = tmpPath("keep1");
    removeRotation(path, 3);
    ASSERT_TRUE(core::saveCheckpointRotated(path, stubDocument(1), 1));
    ASSERT_TRUE(core::saveCheckpointRotated(path, stubDocument(2), 1));
    EXPECT_FALSE(core::loadCheckpointFile(
                     core::rotatedCheckpointPath(path, 1))
                     .has_value());
    const auto newest = core::loadCheckpointFile(path);
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->completedIterations, 2);
    removeRotation(path, 3);
}

TEST(CheckpointRecovery, FallsBackPastCorruptNewestGeneration)
{
    const std::string path = tmpPath("fallback");
    removeRotation(path, 3);
    for (int i = 1; i <= 3; ++i)
        ASSERT_TRUE(
            core::saveCheckpointRotated(path, stubDocument(i), 3));
    // Corrupt the newest generation only.
    std::ofstream(path, std::ios::binary) << "{ torn";

    const auto rec = core::loadNewestValidCheckpoint(path, 3);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->generation, 1);
    EXPECT_EQ(rec->path, core::rotatedCheckpointPath(path, 1));
    EXPECT_EQ(rec->checkpoint.completedIterations, 2);
    ASSERT_EQ(rec->rejected.size(), 1u);
    removeRotation(path, 3);
}

TEST(CheckpointRecovery, ThrowsWhenAllGenerationsCorrupt)
{
    const std::string path = tmpPath("allbad");
    removeRotation(path, 3);
    for (int n = 0; n < 3; ++n)
        std::ofstream(core::rotatedCheckpointPath(path, n),
                      std::ios::binary)
            << "garbage";
    EXPECT_THROW(core::loadNewestValidCheckpoint(path, 3),
                 std::runtime_error);
    removeRotation(path, 3);
}

TEST(CheckpointRecovery, NothingOnDiskReturnsNullopt)
{
    const std::string path = tmpPath("nodisk");
    removeRotation(path, 3);
    EXPECT_FALSE(core::loadNewestValidCheckpoint(path, 3).has_value());
}

TEST(CheckpointRecovery, DriverResumesFromRotatedGeneration)
{
    // End-to-end: corrupt the newest generation after a partial run;
    // the resumed driver falls back one generation, replays the lost
    // trial, counts the recovery, and still reproduces the straight
    // run exactly.
    auto cfg = tinyConfig(DriverConfig::unico());
    CoOptimizer straight(sharedEnv(), cfg);
    const CoSearchResult full = straight.run();

    const std::string path = tmpPath("driver_fallback");
    removeRotation(path, 3);
    auto part = cfg;
    part.maxIter = 3;
    part.checkpointPath = path;
    CoOptimizer first(sharedEnv(), part);
    first.run();

    std::ofstream(path, std::ios::binary) << "{ torn write";

    auto rest = cfg;
    rest.checkpointPath = path;
    rest.resumeFromCheckpoint = true;
    CoOptimizer second(sharedEnv(), rest);
    const CoSearchResult resumed = second.run();

    expectIdentical(full, resumed);
    EXPECT_EQ(resumed.faults.checkpointRecoveries, 1u);
    EXPECT_FALSE(resumed.warnings.empty());
    removeRotation(path, 3);
}

TEST(CheckpointCadence, SparseCheckpointEveryStillResumesExactly)
{
    auto cfg = tinyConfig(DriverConfig::unico());
    CoOptimizer straight(sharedEnv(), cfg);
    const CoSearchResult full = straight.run();

    const std::string path = tmpPath("cadence");
    removeRotation(path, 3);
    auto part = cfg;
    part.maxIter = 3;
    part.checkpointPath = path;
    part.checkpointEvery = 2; // saves after trials 2 and (final) 3
    CoOptimizer first(sharedEnv(), part);
    first.run();
    const auto ck = core::loadCheckpointFile(path);
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->completedIterations, 3);

    auto rest = cfg;
    rest.checkpointPath = path;
    rest.resumeFromCheckpoint = true;
    rest.checkpointEvery = 2;
    CoOptimizer second(sharedEnv(), rest);
    expectIdentical(full, second.run());
    removeRotation(path, 3);
}

TEST(Interrupt, PreCancelledTokenStopsBeforeFirstTrial)
{
    common::CancelToken token;
    token.cancel(common::CancelReason::Signal);
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.cancel = &token;
    CoOptimizer opt(sharedEnv(), cfg);
    const CoSearchResult r = opt.run();
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(r.interruptReason, "signal");
    EXPECT_TRUE(r.records.empty());
}

TEST(Interrupt, ExpiredWallDeadlineStopsBeforeFirstTrial)
{
    // The deadline has passed by the first poll (start() itself takes
    // far longer than a nanosecond), so no trial runs.
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.wallDeadlineSeconds = 1e-9;
    CoOptimizer opt(sharedEnv(), cfg);
    const CoSearchResult r = opt.run();
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(r.interruptReason, "wall-deadline");
    EXPECT_TRUE(r.records.empty());
}

TEST(Interrupt, WallDeadlineInterruptsAndResumeCompletesExactly)
{
    auto cfg = tinyConfig(DriverConfig::unico());
    CoOptimizer straight(sharedEnv(), cfg);
    const CoSearchResult full = straight.run();

    // A very tight whole-run deadline: the run winds down at the
    // next boundary with partial-trial state rolled back. Wherever
    // it stopped, resuming without the deadline must complete the
    // identical search.
    const std::string path = tmpPath("deadline");
    removeRotation(path, 3);
    auto bounded = cfg;
    bounded.checkpointPath = path;
    bounded.wallDeadlineSeconds = 0.005;
    CoOptimizer first(sharedEnv(), bounded);
    const CoSearchResult r1 = first.run();
    if (r1.interrupted) {
        EXPECT_EQ(r1.interruptReason, "wall-deadline");
    }
    EXPECT_LE(r1.records.size(), full.records.size());

    auto rest = cfg;
    rest.checkpointPath = path;
    rest.resumeFromCheckpoint = true;
    CoOptimizer second(sharedEnv(), rest);
    expectIdentical(full, second.run());
    removeRotation(path, 3);
}

TEST(Interrupt, EvalWallDeadlineSurfacesAsTimeoutFaults)
{
    // An absurdly tight per-evaluation deadline trips constantly;
    // the supervisor classifies expiries as Timeout and recovers
    // (retry -> degrade -> penalty) instead of aborting. Every round
    // asks for more than one 4-sweep chunk, and a chunk outlasts
    // 100 ns, so the clock read after the first chunk always finds
    // the attempt expired.
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    cfg.evalWallDeadlineSeconds = 1e-7;
    cfg.recovery.maxRetries = 1;
    CoOptimizer opt(sharedEnv(), cfg);
    const CoSearchResult r = opt.run();
    EXPECT_FALSE(r.interrupted);
    EXPECT_EQ(r.records.size(), 8u);
    EXPECT_GT(r.faults.timeout, 0u);
}

// ---------------------------------------------------------------------
// Stack identity (version 3): backend / scenario / workload digest are
// stamped into checkpoints, and --resume refuses a mismatched stack
// with a typed error. Empty fields (legacy documents, stub envs) skip
// the check instead of refusing.
// ---------------------------------------------------------------------

TEST(StackIdentity, SnapshotsTheLiveEnvironment)
{
    const auto id = common::StackIdentity::of(sharedEnv());
    EXPECT_EQ(id.backend, "spatial");
    EXPECT_EQ(id.scenario, "edge");
    EXPECT_FALSE(id.workloadDigest.empty());
    EXPECT_EQ(id.workloadDigest,
              common::hexU64(sharedEnv().workloadDigest()));
}

TEST(StackIdentity, DocumentRoundTripsIdentityFields)
{
    auto ck = stubCheckpoint(2);
    ck.backend = "spatial";
    ck.scenario = "edge";
    ck.workloadDigest = "00decafc0ffee000";
    const auto back = core::checkpointFromJson(oracle::toJson(ck));
    EXPECT_EQ(back.backend, ck.backend);
    EXPECT_EQ(back.scenario, ck.scenario);
    EXPECT_EQ(back.workloadDigest, ck.workloadDigest);
}

TEST(StackIdentity, CompatibilityChecksEachField)
{
    auto ck = stubCheckpoint(1);
    ck.backend = "spatial";
    ck.scenario = "edge";
    ck.workloadDigest = "abc123";
    const common::StackIdentity live{"spatial", "edge", "abc123"};

    EXPECT_TRUE(core::checkpointCompatibility(ck, "stub-config", live));

    const auto bad_cfg =
        core::checkpointCompatibility(ck, "other-config", live);
    EXPECT_FALSE(bad_cfg.ok());
    EXPECT_NE(bad_cfg.message.find("configuration"), std::string::npos);

    auto mism = live;
    mism.backend = "ascend";
    const auto bad_backend =
        core::checkpointCompatibility(ck, "stub-config", mism);
    EXPECT_FALSE(bad_backend.ok());
    EXPECT_NE(bad_backend.message.find("backend"), std::string::npos);
    EXPECT_NE(bad_backend.message.find("ascend"), std::string::npos);

    mism = live;
    mism.scenario = "cloud";
    EXPECT_FALSE(
        core::checkpointCompatibility(ck, "stub-config", mism).ok());

    mism = live;
    mism.workloadDigest = "def456";
    const auto bad_wl =
        core::checkpointCompatibility(ck, "stub-config", mism);
    EXPECT_FALSE(bad_wl.ok());
    EXPECT_NE(bad_wl.message.find("workload"), std::string::npos);
}

TEST(StackIdentity, EmptyFieldsSkipTheCheck)
{
    // Legacy (pre-v3) documents carry no identity; they must remain
    // resumable against any stack. Likewise a live env that reports
    // no identity (stub backends) never trips the check.
    auto legacy = stubCheckpoint(1);
    const common::StackIdentity live{"spatial", "edge", "abc123"};
    EXPECT_TRUE(core::checkpointCompatibility(legacy, "stub-config", live));

    auto ck = stubCheckpoint(1);
    ck.backend = "ascend";
    ck.scenario = "area200";
    ck.workloadDigest = "abc123";
    const common::StackIdentity anonymous{"", "", ""};
    EXPECT_TRUE(
        core::checkpointCompatibility(ck, "stub-config", anonymous));
}

TEST(StackIdentity, DriverStampsIdentityIntoCheckpoints)
{
    const std::string path = tmpPath("identity");
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    cfg.checkpointPath = path;
    CoOptimizer first(sharedEnv(), cfg);
    first.run();

    const auto ck = core::loadCheckpointFile(path);
    ASSERT_TRUE(ck.has_value());
    EXPECT_EQ(ck->version, 3);
    EXPECT_EQ(ck->backend, "spatial");
    EXPECT_EQ(ck->scenario, "edge");
    EXPECT_EQ(ck->workloadDigest,
              common::hexU64(sharedEnv().workloadDigest()));
    std::remove(path.c_str());
}

TEST(StackIdentity, ResumeRefusesForeignBackendStack)
{
    // A checkpoint written by the spatial stack must not resume under
    // the ascend stack, even with an identical DriverConfig.
    const std::string path = tmpPath("foreign_backend");
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    cfg.checkpointPath = path;
    CoOptimizer first(sharedEnv(), cfg);
    first.run();

    core::BackendOptions bopt;
    bopt.maxShapesPerNetwork = 2;
    const auto ascend = core::makeBackendEnv(
        "ascend", {workload::makeNetwork("fsrcnn_120x320")}, bopt);
    auto rcfg = cfg;
    rcfg.resumeFromCheckpoint = true;
    CoOptimizer second(*ascend, rcfg);
    EXPECT_THROW(second.run(), core::CheckpointMismatchError);
    std::remove(path.c_str());
}

TEST(StackIdentity, ResumeRefusesForeignWorkload)
{
    // Same backend, same config, different workload stack: the digest
    // differs, so resume must refuse instead of blending trajectories.
    const std::string path = tmpPath("foreign_workload");
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    cfg.checkpointPath = path;
    CoOptimizer first(sharedEnv(), cfg);
    first.run();

    core::BackendOptions bopt;
    bopt.maxShapesPerNetwork = 2;
    const auto other = core::makeBackendEnv(
        "spatial", {workload::makeNetwork("resnet")}, bopt);
    auto rcfg = cfg;
    rcfg.resumeFromCheckpoint = true;
    CoOptimizer second(*other, rcfg);
    EXPECT_THROW(second.run(), core::CheckpointMismatchError);
    std::remove(path.c_str());
}

TEST(StackIdentity, ResumeRefusesForeignScenario)
{
    const std::string path = tmpPath("foreign_scenario");
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    cfg.checkpointPath = path;
    CoOptimizer first(sharedEnv(), cfg);
    first.run();

    core::BackendOptions bopt;
    bopt.maxShapesPerNetwork = 2;
    bopt.scenario = accel::Scenario::Cloud;
    const auto cloud = core::makeBackendEnv(
        "spatial", {workload::makeMobileNet()}, bopt);
    auto rcfg = cfg;
    rcfg.resumeFromCheckpoint = true;
    CoOptimizer second(*cloud, rcfg);
    EXPECT_THROW(second.run(), core::CheckpointMismatchError);
    std::remove(path.c_str());
}

TEST(StackIdentity, ResumeRefusesAreaBudgetPastSixDigits)
{
    // The ascend scenario names the area budget in every digit: two
    // budgets equal to 6 significant digits are different scenarios,
    // so a checkpoint from one does not resume under the other.
    const auto ascend = [](double area) {
        core::BackendOptions bopt;
        bopt.maxShapesPerNetwork = 2;
        bopt.areaBudgetMm2 = area;
        return core::makeBackendEnv(
            "ascend", {workload::makeNetwork("fsrcnn_120x320")}, bopt);
    };
    const auto first_env = ascend(96.1234567);
    const auto other_env = ascend(96.1234599);
    ASSERT_NE(first_env->scenarioName(), other_env->scenarioName());

    const std::string path = tmpPath("area_digits");
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 1;
    cfg.checkpointPath = path;
    CoOptimizer first(*first_env, cfg);
    first.run();

    auto rcfg = cfg;
    rcfg.resumeFromCheckpoint = true;
    CoOptimizer second(*other_env, rcfg);
    EXPECT_THROW(second.run(), core::CheckpointMismatchError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Streamed checkpoints: CheckpointWriter formats each appended element
// once and copies the rest, so every save must still print exactly the
// DOM oracle's text for the state it holds, and a writer that formats
// everything afresh (after a resume) must print the same bytes as one
// that cached along the way.
// ---------------------------------------------------------------------

namespace {

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** The file bytes of every checkpoint a search saves, in order. */
class CheckpointCapture : public core::ProgressObserver
{
  public:
    void
    onProgress(const core::ProgressEvent &event) override
    {
        if (event.kind == core::ProgressKind::CheckpointWritten)
            saves.push_back(readBytes(event.detail));
    }

    std::vector<std::string> saves;
};

/** The DOM oracle's file bytes for the state checkpoint @p bytes
 *  holds: its document parsed, rebuilt as a DOM and printed. */
std::string
oracleBytes(const std::string &bytes)
{
    const std::string path = tmpPath("oracle_bytes");
    const auto pos = bytes.rfind("#crc64:");
    EXPECT_NE(pos, std::string::npos);
    const auto ck = core::checkpointFromJson(
        common::Json::parse(bytes.substr(0, pos)));
    EXPECT_TRUE(core::saveCheckpointFile(path,
                                         oracle::checkpointDocument(ck)));
    const std::string out = readBytes(path);
    std::remove(path.c_str());
    return out;
}

/** Cancels @p token while the trial that creates the @p at-th mapping
 *  run is under way, so that trial is rolled back. */
class CancelAtRun : public core::EnvDecorator
{
  public:
    CancelAtRun(core::CoSearchEnv &inner, common::CancelToken &token,
                int at)
        : EnvDecorator(inner), token_(token), at_(at)
    {}

    std::unique_ptr<core::MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const override
    {
        if (++runs_ == at_)
            token_.cancel(common::CancelReason::Signal);
        return EnvDecorator::createRun(h, seed);
    }

  private:
    common::CancelToken &token_;
    int at_;
    mutable int runs_ = 0;
};

/** One evaluation stack per run: the plain env, or a fresh fault
 *  injector over it with the same plan. */
struct EvalStack
{
    explicit EvalStack(bool faulty)
    {
        if (faulty) {
            common::FaultSpec spec;
            spec.transientRate = 0.1;
            spec.hangRate = 0.05;
            spec.corruptRate = 0.05;
            spec.seed = 41;
            faults = std::make_unique<core::FaultyEnv>(
                sharedEnv(), common::FaultPlan(spec));
        }
    }

    core::CoSearchEnv &
    env()
    {
        return faults ? static_cast<core::CoSearchEnv &>(*faults)
                      : sharedEnv();
    }

    std::unique_ptr<core::FaultyEnv> faults;
};

/** Every save of a straight checkpointed run of @p cfg. */
std::vector<std::string>
straightSaves(const DriverConfig &cfg, bool faulty, const std::string &tag)
{
    const std::string path = tmpPath(tag);
    removeRotation(path, 3);
    auto run = cfg;
    run.checkpointPath = path;
    EvalStack stack(faulty);
    CheckpointCapture capture;
    CoOptimizer opt(stack.env(), run, nullptr, &capture);
    opt.run();
    removeRotation(path, 3);
    return capture.saves;
}

} // namespace

class CheckpointStream : public ::testing::TestWithParam<bool>
{};

TEST_P(CheckpointStream, EverySaveMatchesTheDomOracle)
{
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 6;
    const auto saves = straightSaves(cfg, GetParam(), "stream_every");
    ASSERT_EQ(saves.size(), 6u);
    for (std::size_t t = 0; t < saves.size(); ++t)
        ASSERT_EQ(saves[t], oracleBytes(saves[t])) << "save " << t + 1;
    if (GetParam()) {
        const auto pos = saves.back().rfind("#crc64:");
        const auto ck = core::checkpointFromJson(
            common::Json::parse(saves.back().substr(0, pos)));
        EXPECT_GT(ck.result.faults.total(), 0u) << "no fault was injected";
    }
}

TEST_P(CheckpointStream, ResumedWriterPrintsTheCachedBytes)
{
    // A resumed search's writer formats every element afresh at its
    // first save; the straight run's writer had cached all but the
    // last trial's. Both must print the same file.
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 5;
    const auto saves = straightSaves(cfg, GetParam(), "stream_straight");
    ASSERT_EQ(saves.size(), 5u);
    const std::string path = tmpPath("stream_resume");
    for (int t = 1; t < cfg.maxIter; ++t) {
        removeRotation(path, 3);
        std::ofstream(path, std::ios::binary) << saves[t - 1];
        auto rest = cfg;
        rest.maxIter = t + 1;
        rest.checkpointPath = path;
        rest.resumeFromCheckpoint = true;
        EvalStack stack(GetParam());
        CheckpointCapture capture;
        CoOptimizer opt(stack.env(), rest, nullptr, &capture);
        opt.run();
        ASSERT_EQ(capture.saves.size(), 1u);
        EXPECT_EQ(capture.saves[0], saves[t]) << "resumed after " << t;
    }
    removeRotation(path, 3);
}

TEST_P(CheckpointStream, ParentFormatResumesToTheStraightRunBytes)
{
    // A checkpoint printed by the DOM path (the format before the
    // streaming writer) resumes to the straight run's final bytes.
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 5;
    const auto saves = straightSaves(cfg, GetParam(), "stream_parent");
    ASSERT_EQ(saves.size(), 5u);
    const std::string path = tmpPath("stream_parent_resume");
    removeRotation(path, 3);
    std::ofstream(path, std::ios::binary) << oracleBytes(saves[1]);
    auto rest = cfg;
    rest.checkpointPath = path;
    rest.resumeFromCheckpoint = true;
    EvalStack stack(GetParam());
    CoOptimizer opt(stack.env(), rest);
    opt.run();
    EXPECT_EQ(readBytes(path), saves.back());
    removeRotation(path, 3);
}

TEST_P(CheckpointStream, SparseCadenceSurvivesAnInterruptRollback)
{
    // --checkpoint-every 3, interrupted inside trial 5: the rollback
    // drops the writer's cache, the final save holds trial 4, and a
    // resume saves trial 7 -- each the straight run's bytes.
    auto cfg = tinyConfig(DriverConfig::unico());
    cfg.maxIter = 7;
    const auto saves = straightSaves(cfg, GetParam(), "stream_sparse");
    ASSERT_EQ(saves.size(), 7u);

    const std::string path = tmpPath("stream_interrupt");
    removeRotation(path, 3);
    common::CancelToken token;
    auto part = cfg;
    part.checkpointPath = path;
    part.checkpointEvery = 3;
    part.cancel = &token;
    EvalStack stack(GetParam());
    CancelAtRun interrupting(stack.env(), token, 4 * cfg.batchSize + 3);
    CheckpointCapture first;
    CoOptimizer interrupted(interrupting, part, nullptr, &first);
    const CoSearchResult r = interrupted.run();
    EXPECT_TRUE(r.interrupted);
    ASSERT_EQ(first.saves.size(), 2u);
    EXPECT_EQ(first.saves[0], saves[2]);
    EXPECT_EQ(first.saves[1], saves[3]);

    auto rest = cfg;
    rest.checkpointPath = path;
    rest.checkpointEvery = 3;
    rest.resumeFromCheckpoint = true;
    EvalStack again(GetParam());
    CheckpointCapture second;
    CoOptimizer resumed(again.env(), rest, nullptr, &second);
    resumed.run();
    ASSERT_EQ(second.saves.size(), 1u);
    EXPECT_EQ(second.saves[0], saves[6]);
    removeRotation(path, 3);
}

INSTANTIATE_TEST_SUITE_P(PlainAndFaulty, CheckpointStream,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "FaultRate" : "Plain";
                         });
