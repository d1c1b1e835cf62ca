#include "common/thread_pool.hh"

namespace unico::common {

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wakeWorker_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
    }
    wakeWorker_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeWorker_.wait(lock,
                             [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
    }
}

void
ThreadPool::Batch::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++pending_;
    }
    pool_.submit([this, job = std::move(job)] {
        std::exception_ptr failure;
        try {
            job();
        } catch (...) {
            failure = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (failure)
            failures_.push_back(std::move(failure));
        if (--pending_ == 0)
            done_.notify_all();
    });
}

void
ThreadPool::Batch::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
}

std::vector<std::exception_ptr>
ThreadPool::Batch::drainFailures()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::exception_ptr> out;
    out.swap(failures_);
    return out;
}

void
runParallel(const std::vector<std::function<void()>> &jobs,
            std::size_t threads, const CancelToken *cancel)
{
    if (threads <= 1) {
        std::exception_ptr first;
        for (const auto &job : jobs) {
            if (cancel != nullptr && cancel->cancelled())
                break;
            try {
                job();
            } catch (...) {
                if (!first)
                    first = std::current_exception();
            }
        }
        if (first)
            std::rethrow_exception(first);
        return;
    }
    ThreadPool pool(threads);
    runParallel(jobs, pool, cancel);
}

void
runParallel(const std::vector<std::function<void()>> &jobs,
            ThreadPool &pool, const CancelToken *cancel)
{
    ThreadPool::Batch batch(pool);
    for (const auto &job : jobs) {
        if (cancel == nullptr) {
            batch.submit(job);
        } else {
            // The skip decision happens when the job is *dequeued*:
            // a cancellation during the batch drains the queue
            // without starting new work.
            batch.submit([&job, cancel] {
                if (!cancel->cancelled())
                    job();
            });
        }
    }
    batch.wait();
    const auto failures = batch.drainFailures();
    if (!failures.empty())
        std::rethrow_exception(failures.front());
}

} // namespace unico::common
