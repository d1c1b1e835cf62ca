/**
 * @file
 * Unit tests for the crash-resilience primitives: CancelToken,
 * the wall-clock Watchdog, the process shutdown token, and the
 * cancellation-aware thread pool.
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
#include "common/watchdog.hh"

using namespace unico;

namespace {

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Spin until @p pred holds or ~2 s pass. */
bool
eventually(const std::function<bool()> &pred)
{
    for (int i = 0; i < 400; ++i) {
        if (pred())
            return true;
        sleepMs(5);
    }
    return pred();
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
    token.cancel(common::CancelReason::EvalDeadline);
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
    EXPECT_STREQ(common::toString(common::CancelReason::EvalDeadline),
                 "eval-wall-deadline");
}

TEST(Watchdog, CancelsAfterDeadline)
{
    common::Watchdog dog;
    common::CancelToken token;
    dog.watch(token, 0.02, common::CancelReason::EvalDeadline);
    EXPECT_TRUE(eventually([&] { return token.cancelled(); }));
    EXPECT_EQ(token.reason(), common::CancelReason::EvalDeadline);
    EXPECT_TRUE(eventually([&] { return dog.armed() == 0; }));
}

TEST(Watchdog, ReleaseBeforeDeadlineKeepsTokenClear)
{
    common::Watchdog dog;
    common::CancelToken token;
    const auto id =
        dog.watch(token, 30.0, common::CancelReason::RunDeadline);
    EXPECT_EQ(dog.armed(), 1u);
    EXPECT_TRUE(dog.release(id));
    EXPECT_EQ(dog.armed(), 0u);
    sleepMs(20);
    EXPECT_FALSE(token.cancelled());
}

TEST(Watchdog, ReleaseAfterExpiryReportsFired)
{
    common::Watchdog dog;
    common::CancelToken token;
    const auto id =
        dog.watch(token, 0.01, common::CancelReason::EvalDeadline);
    ASSERT_TRUE(eventually([&] { return token.cancelled(); }));
    EXPECT_FALSE(dog.release(id));
    // After release() returns the watchdog no longer references the
    // token: resetting and reusing it must be safe.
    token.reset();
    sleepMs(20);
    EXPECT_FALSE(token.cancelled());
}

TEST(Watchdog, TracksMultipleRegistrations)
{
    common::Watchdog dog;
    common::CancelToken fast, slow;
    dog.watch(fast, 0.01, common::CancelReason::EvalDeadline);
    const auto slow_id =
        dog.watch(slow, 30.0, common::CancelReason::RunDeadline);
    EXPECT_TRUE(eventually([&] { return fast.cancelled(); }));
    EXPECT_FALSE(slow.cancelled());
    EXPECT_TRUE(dog.release(slow_id));
}

TEST(Watchdog, DestructorWithArmedEntriesIsClean)
{
    common::CancelToken token;
    {
        common::Watchdog dog;
        dog.watch(token, 30.0, common::CancelReason::RunDeadline);
    }
    // Tearing the watchdog down does not spuriously cancel.
    EXPECT_FALSE(token.cancelled());
}

TEST(Shutdown, SignalFlipsTokenAndClearRearms)
{
    common::clearShutdownRequest();
    const common::ShutdownScope scope;
    ASSERT_FALSE(common::shutdownRequested());
    std::raise(SIGTERM);
    EXPECT_TRUE(common::shutdownRequested());
    EXPECT_TRUE(common::shutdownToken().cancelled());
    EXPECT_EQ(common::shutdownToken().reason(),
              common::CancelReason::Signal);
    EXPECT_EQ(common::shutdownSignal(), SIGTERM);
    common::clearShutdownRequest();
    EXPECT_FALSE(common::shutdownRequested());
    EXPECT_EQ(common::shutdownSignal(), 0);
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
