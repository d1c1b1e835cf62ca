/**
 * @file
 * Unit tests for the ThreadPool job substrate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "common/status.hh"
#include "common/thread_pool.hh"

using unico::common::EvalFault;
using unico::common::EvalStatus;
using unico::common::ThreadPool;
using unico::common::runParallel;

TEST(ThreadPool, RunsAllJobs)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    ThreadPool::Batch batch(pool);
    for (int i = 0; i < 100; ++i)
        batch.submit([&counter] { ++counter; });
    batch.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitOnEmptyBatch)
{
    ThreadPool pool(2);
    ThreadPool::Batch batch(pool);
    batch.wait();
    EXPECT_TRUE(batch.drainFailures().empty());
}

TEST(ThreadPool, SizeReflectsRequestedThreads)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeNonZero)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, MultipleWaitBatches)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        ThreadPool::Batch batch(pool);
        for (int i = 0; i < 10; ++i)
            batch.submit([&counter] { ++counter; });
        batch.wait();
        EXPECT_EQ(counter.load(), (round + 1) * 10);
    }
}

TEST(RunParallel, InlineWhenSingleThreaded)
{
    std::vector<int> order;
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 5; ++i)
        jobs.push_back([&order, i] { order.push_back(i); });
    runParallel(jobs, 1);
    const std::vector<int> expected = {0, 1, 2, 3, 4};
    EXPECT_EQ(order, expected); // deterministic order inline
}

TEST(RunParallel, ParallelSum)
{
    std::vector<std::atomic<int>> cells(64);
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back([&cells, i] { cells[i] = i; });
    runParallel(jobs, 4);
    int total = 0;
    for (auto &c : cells)
        total += c.load();
    EXPECT_EQ(total, 64 * 63 / 2);
}

TEST(ThreadPool, ThrowingJobIsCapturedNotTerminal)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    ThreadPool::Batch batch(pool);
    for (int i = 0; i < 8; ++i)
        batch.submit([&counter, i] {
            if (i == 3)
                throw std::runtime_error("boom");
            ++counter;
        });
    batch.wait();
    EXPECT_EQ(counter.load(), 7); // the other jobs still ran
    const auto failures = batch.drainFailures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_THROW(std::rethrow_exception(failures[0]),
                 std::runtime_error);
    EXPECT_TRUE(batch.drainFailures().empty()); // drained
}

TEST(ThreadPool, PoolUsableAfterFailedBatch)
{
    ThreadPool pool(2);
    {
        ThreadPool::Batch bad(pool);
        bad.submit([] { throw std::runtime_error("bad batch"); });
        bad.wait();
        EXPECT_EQ(bad.drainFailures().size(), 1u);
    }

    // The pool must stay fully usable for subsequent batches.
    std::atomic<int> counter{0};
    ThreadPool::Batch good(pool);
    for (int i = 0; i < 20; ++i)
        good.submit([&counter] { ++counter; });
    good.wait();
    EXPECT_EQ(counter.load(), 20);
    EXPECT_TRUE(good.drainFailures().empty());
}

TEST(RunParallel, RethrowsFirstJobException)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::atomic<int> counter{0};
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 10; ++i)
            jobs.push_back([&counter, i] {
                if (i == 5)
                    throw EvalFault(EvalStatus::Transient, "inj");
                ++counter;
            });
        EXPECT_THROW(runParallel(jobs, threads), EvalFault);
        EXPECT_EQ(counter.load(), 9); // all jobs ran to completion
    }
}

TEST(ThreadPoolBatch, IndependentBatchesOnOnePool)
{
    ThreadPool pool(3);
    std::atomic<int> a{0}, b{0};
    ThreadPool::Batch first(pool);
    ThreadPool::Batch second(pool);
    for (int i = 0; i < 25; ++i) {
        first.submit([&a] { ++a; });
        second.submit([&b] { ++b; });
    }
    first.wait();
    EXPECT_EQ(a.load(), 25);
    second.wait();
    EXPECT_EQ(b.load(), 25);
    EXPECT_TRUE(first.drainFailures().empty());
    EXPECT_TRUE(second.drainFailures().empty());
}

TEST(ThreadPoolBatch, FailuresStayWithTheirBatch)
{
    ThreadPool pool(2);
    ThreadPool::Batch bad(pool);
    ThreadPool::Batch good(pool);
    bad.submit([] { throw std::runtime_error("batch-local"); });
    good.submit([] {});
    bad.wait();
    good.wait();
    EXPECT_EQ(bad.drainFailures().size(), 1u);
    EXPECT_TRUE(good.drainFailures().empty());
}

TEST(RunParallel, PersistentPoolMatchesTransient)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::vector<std::atomic<int>> cells(32);
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 32; ++i)
            jobs.push_back([&cells, i] { cells[i] = i + 1; });
        runParallel(jobs, pool);
        for (int i = 0; i < 32; ++i)
            EXPECT_EQ(cells[i].load(), i + 1);
    }
}

TEST(RunParallel, PersistentPoolRethrowsFirstFailure)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back([&counter, i] {
            if (i == 2)
                throw EvalFault(EvalStatus::Transient, "inj");
            ++counter;
        });
    EXPECT_THROW(runParallel(jobs, pool), EvalFault);
    EXPECT_EQ(counter.load(), 5);
    // Pool stays usable.
    counter = 0;
    std::vector<std::function<void()>> ok;
    for (int i = 0; i < 6; ++i)
        ok.push_back([&counter] { ++counter; });
    runParallel(ok, pool);
    EXPECT_EQ(counter.load(), 6);
}
