/**
 * @file
 * Tests for search-result summarization and CSV export.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/report.hh"
#include "core/spatial_env.hh"
#include "workload/model_zoo.hh"

using namespace unico;
using core::CoOptimizer;
using core::CoSearchResult;
using core::DriverConfig;

namespace {

core::SpatialEnv &
env()
{
    static core::SpatialEnv e = [] {
        core::BackendOptions opt;
        opt.maxShapesPerNetwork = 2;
        return core::SpatialEnv({workload::makeMobileNet()}, opt);
    }();
    return e;
}

const CoSearchResult &
result()
{
    static CoSearchResult r = [] {
        DriverConfig cfg = DriverConfig::unico();
        cfg.batchSize = 6;
        cfg.maxIter = 2;
        cfg.sh.bMax = 32;
        cfg.seed = 3;
        return CoOptimizer(env(), cfg).run();
    }();
    return r;
}

std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line))
        ++lines;
    return lines;
}

} // namespace

TEST(Report, SummaryCountsConsistent)
{
    const auto s = core::summarize(result());
    EXPECT_EQ(s.samples, result().records.size());
    EXPECT_LE(s.constraintOk, s.feasible);
    EXPECT_LE(s.feasible, s.samples);
    EXPECT_EQ(s.frontSize, result().front.size());
    EXPECT_GT(s.fullySearched, 0u);
    EXPECT_GT(s.totalHours, 0.0);
    EXPECT_GT(s.evaluations, 0u);
}

TEST(Report, SummaryBestValuesFromConstraintOkSamples)
{
    const auto s = core::summarize(result());
    if (s.constraintOk > 0) {
        EXPECT_GT(s.bestLatencyMs, 0.0);
        for (const auto &rec : result().records) {
            if (rec.constraintOk) {
                EXPECT_GE(rec.ppa.latencyMs, s.bestLatencyMs);
            }
        }
    }
}

TEST(Report, SummaryToStringMentionsKeyFields)
{
    const std::string text = core::toString(core::summarize(result()));
    EXPECT_NE(text.find("samples="), std::string::npos);
    EXPECT_NE(text.find("cost="), std::string::npos);
    EXPECT_NE(text.find("meanR="), std::string::npos);
}

TEST(Report, RecordsCsvHasOneRowPerRecord)
{
    const std::string path = "/tmp/unico_records_test.csv";
    ASSERT_TRUE(core::writeRecordsCsv(result(), env(), path));
    EXPECT_EQ(countLines(path), result().records.size() + 1);
}

TEST(Report, FrontCsvHasOneRowPerEntry)
{
    const std::string path = "/tmp/unico_front_test.csv";
    ASSERT_TRUE(core::writeFrontCsv(result(), env(), path));
    EXPECT_EQ(countLines(path), result().front.size() + 1);
}

TEST(Report, TraceCsvHasOneRowPerIteration)
{
    const std::string path = "/tmp/unico_trace_test.csv";
    ASSERT_TRUE(core::writeTraceCsv(result(), path));
    EXPECT_EQ(countLines(path), result().trace.size() + 1);
}

TEST(Report, WriteToUnwritablePathFails)
{
    EXPECT_FALSE(core::writeTraceCsv(result(),
                                     "/nonexistent/dir/out.csv"));
}

TEST(Report, EmptyResultSummary)
{
    const CoSearchResult empty;
    const auto s = core::summarize(empty);
    EXPECT_EQ(s.samples, 0u);
    EXPECT_DOUBLE_EQ(s.bestLatencyMs, 0.0);
    EXPECT_DOUBLE_EQ(s.meanSensitivity, 0.0);
}
