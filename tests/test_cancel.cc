/**
 * @file
 * Unit tests for the crash-resilience primitives: CancelToken, the
 * process shutdown token, and the cancellation-aware thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <thread>
#include <vector>

#include "common/cancel.hh"
#include "common/shutdown.hh"
#include "common/thread_pool.hh"

using namespace unico;

namespace {

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace

TEST(CancelToken, StartsClear)
{
    common::CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), common::CancelReason::None);
}

TEST(CancelToken, FirstCancelWins)
{
    common::CancelToken token;
    EXPECT_TRUE(token.cancel(common::CancelReason::Signal));
    EXPECT_FALSE(token.cancel(common::CancelReason::RunDeadline));
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), common::CancelReason::Signal);
}

TEST(CancelToken, ResetRearms)
{
    common::CancelToken token;
    token.cancel(common::CancelReason::JobCancel);
    token.reset();
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.cancel(common::CancelReason::RunDeadline));
    EXPECT_EQ(token.reason(), common::CancelReason::RunDeadline);
}

TEST(CancelToken, ReasonNamesAreStable)
{
    EXPECT_STREQ(common::toString(common::CancelReason::None), "none");
    EXPECT_STREQ(common::toString(common::CancelReason::Signal),
                 "signal");
    EXPECT_STREQ(common::toString(common::CancelReason::RunDeadline),
                 "wall-deadline");
    EXPECT_STREQ(common::toString(common::CancelReason::JobCancel),
                 "cancelled");
}

TEST(Shutdown, SignalFlipsTokenAndTeardownRearms)
{
    {
        const common::ShutdownScope scope;
        ASSERT_FALSE(common::shutdownRequested());
        ASSERT_EQ(std::raise(SIGTERM), 0);
        EXPECT_TRUE(common::shutdownRequested());
        EXPECT_TRUE(common::shutdownToken().cancelled());
        EXPECT_EQ(common::shutdownToken().reason(),
                  common::CancelReason::Signal);
    }
    // The last scope's teardown re-armed the token.
    EXPECT_FALSE(common::shutdownRequested());
    EXPECT_EQ(common::shutdownToken().reason(),
              common::CancelReason::None);
}

TEST(Shutdown, ResumableExitCodeIsSysexitsTempfail)
{
    EXPECT_EQ(common::kExitResumable, 75);
}

TEST(RunParallel, CancelSkipsQueuedJobs)
{
    // Many more jobs than threads: cancelling from the first job must
    // leave most of the queue unexecuted (drain, don't start).
    common::CancelToken cancel;
    std::atomic<int> executed{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i) {
        jobs.push_back([&] {
            ++executed;
            cancel.cancel(common::CancelReason::Signal);
            sleepMs(2);
        });
    }
    common::runParallel(jobs, 2, &cancel);
    EXPECT_GE(executed.load(), 1);
    EXPECT_LT(executed.load(), 64);
}

TEST(RunParallel, NullCancelRunsEverything)
{
    std::atomic<int> executed{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 16; ++i)
        jobs.push_back([&] { ++executed; });
    common::runParallel(jobs, 4, nullptr);
    EXPECT_EQ(executed.load(), 16);
}

TEST(RunParallel, SerialPathHonoursCancel)
{
    common::CancelToken cancel;
    int executed = 0;
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 8; ++i) {
        jobs.push_back([&] {
            ++executed;
            if (executed == 3)
                cancel.cancel(common::CancelReason::RunDeadline);
        });
    }
    common::runParallel(jobs, 1, &cancel);
    EXPECT_EQ(executed, 3);
}
