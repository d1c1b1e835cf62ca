/**
 * @file
 * A small fixed-size thread pool.
 *
 * Sec. 3.5 of the paper runs each successive-halving round as a set
 * of standalone parallel jobs. This pool provides that execution
 * substrate. It intentionally keeps the interface tiny: submit void()
 * jobs to a batch, then wait for the whole batch.
 */

#ifndef UNICO_COMMON_THREAD_POOL_HH
#define UNICO_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hh"

namespace unico::common {

/**
 * Fixed-size worker pool whose work arrives in Batches.
 *
 * Jobs may throw: a Batch captures an exception escaping one of its
 * jobs instead of terminating the program (a single bad PPA
 * evaluation must not abort a multi-hour co-search), and the pool
 * stays fully usable for subsequent batches.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 selects hardware concurrency. */
    explicit ThreadPool(std::size_t threads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /**
     * One logical batch of jobs on a shared, long-lived pool.
     *
     * A Batch carries its own pending counter and failure list, so any
     * number of concurrent batches can run on the same pool without
     * stealing each other's completions or exceptions. The destructor
     * waits for the batch, so captured references outlive every job.
     *
     * Do not wait() on a batch from *inside* a job running on the
     * same pool: the worker would block waiting for work only it
     * could execute. Nested fan-out needs a second pool.
     */
    class Batch
    {
      public:
        explicit Batch(ThreadPool &pool) : pool_(pool) {}

        Batch(const Batch &) = delete;
        Batch &operator=(const Batch &) = delete;

        ~Batch() { wait(); }

        /** Enqueue a job attributed to this batch. */
        void submit(std::function<void()> job);

        /** Block until every job submitted to this batch finished. */
        void wait();

        /**
         * Exceptions captured from this batch's failed jobs, in
         * completion order; clears the internal list.
         */
        std::vector<std::exception_ptr> drainFailures();

      private:
        ThreadPool &pool_;
        std::mutex mutex_;
        std::condition_variable done_;
        std::vector<std::exception_ptr> failures_;
        std::size_t pending_ = 0;
    };

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

  private:
    /** Enqueue a job that never throws: Batch::submit, the only
     *  caller, wraps each job in its exception capture. */
    void submit(std::function<void()> job);

    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wakeWorker_;
    bool stopping_ = false;
};

/**
 * Run @p jobs on a transient pool of @p threads workers and wait.
 * With threads <= 1 the jobs run inline (deterministic order), which
 * is also the default on single-core hosts.
 *
 * Every job runs to completion even if some fail; the first captured
 * exception (by job index for inline execution, completion order
 * otherwise) is rethrown after the batch finishes.
 *
 * When @p cancel is non-null, jobs that have not yet *started* when
 * the token is cancelled are skipped (running jobs are expected to
 * poll the token themselves); the batch still returns only after
 * every started job finished, so a drain leaves no work in flight.
 */
void runParallel(const std::vector<std::function<void()>> &jobs,
                 std::size_t threads,
                 const CancelToken *cancel = nullptr);

/**
 * Like runParallel(jobs, threads, cancel) but on a caller-owned
 * persistent pool: no per-invocation thread construction/teardown.
 * Semantics are otherwise identical — every job runs (or is skipped
 * at dequeue time after cancellation), the call returns only once
 * the batch drained, and the first captured exception is rethrown.
 * Safe to call concurrently from several threads on one pool (each
 * call is an independent ThreadPool::Batch); never from inside a job
 * of the same pool.
 */
void runParallel(const std::vector<std::function<void()>> &jobs,
                 ThreadPool &pool, const CancelToken *cancel = nullptr);

} // namespace unico::common

#endif // UNICO_COMMON_THREAD_POOL_HH
