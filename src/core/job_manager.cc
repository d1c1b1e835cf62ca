#include "core/job_manager.hh"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/cli.hh"
#include "common/fault.hh"
#include "common/shard_cache.hh"
#include "common/shutdown.hh"
#include "core/backend.hh"
#include "core/fault_env.hh"
#include "core/report.hh"
#include "surrogate/learned_model.hh"
#include "workload/model_zoo.hh"
#include "workload/parser.hh"

namespace unico::core {

const char *
toString(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Paused: return "paused";
      case JobState::Completed: return "completed";
      case JobState::Cancelled: return "cancelled";
      case JobState::Failed: return "failed";
    }
    return "?";
}

bool
isTerminal(JobState state)
{
    return state == JobState::Completed ||
           state == JobState::Cancelled || state == JobState::Failed;
}

const char *
toString(SubmitError error)
{
    switch (error) {
      case SubmitError::None: return "none";
      case SubmitError::BadSpec: return "bad-spec";
      case SubmitError::QueueFull: return "queue-full";
      case SubmitError::ShuttingDown: return "shutting-down";
    }
    return "?";
}

namespace {

std::vector<std::string>
stringArray(const common::Json &value)
{
    std::vector<std::string> out;
    if (value.isString()) {
        out.push_back(value.asString());
        return out;
    }
    for (std::size_t i = 0; i < value.size(); ++i)
        out.push_back(value.at(i).asString());
    return out;
}

/** The integer @p value as a @p T; throws when it does not fit. */
template <typename T>
T
integer(const common::Json &value)
{
    const std::int64_t v = value.asInt();
    if (!std::in_range<T>(v))
        throw std::runtime_error("integer out of range");
    return static_cast<T>(v);
}

} // namespace

JobSpec
jobSpecFromJson(const common::Json &doc)
{
    if (!doc.isObject())
        throw std::runtime_error("job spec must be a JSON object");
    JobSpec spec;
    for (const auto &[key, value] : doc.members()) {
        try {
            if (key == "name") {
                spec.name = value.asString();
            } else if (key == "model" || key == "models") {
                for (auto &m : stringArray(value))
                    spec.models.push_back(std::move(m));
            } else if (key == "workload" || key == "workloads") {
                for (auto &w : stringArray(value))
                    spec.workloads.push_back(std::move(w));
            } else if (key == "backend") {
                spec.backend = value.asString();
            } else if (key == "scenario") {
                spec.scenario = value.asString();
            } else if (key == "engine") {
                spec.engine = value.asString();
            } else if (key == "area_budget") {
                spec.areaBudgetMm2 = value.asDouble();
            } else if (key == "max_shapes") {
                spec.maxShapes = integer<std::int64_t>(value);
            } else if (key == "algo") {
                spec.algo = value.asString();
            } else if (key == "batch") {
                spec.batch = integer<int>(value);
            } else if (key == "iters") {
                spec.iters = integer<int>(value);
            } else if (key == "bmax") {
                spec.bmax = integer<int>(value);
            } else if (key == "seed") {
                spec.seed = integer<std::uint64_t>(value);
            } else if (key == "threads") {
                spec.threads = integer<std::size_t>(value);
            } else if (key == "checkpoint") {
                spec.checkpoint = value.asString();
            } else if (key == "resume") {
                spec.resume = value.asBool();
            } else if (key == "checkpoint_every") {
                spec.checkpointEvery = integer<int>(value);
            } else if (key == "checkpoint_keep") {
                spec.checkpointKeep = integer<int>(value);
            } else if (key == "csv_prefix") {
                spec.csvPrefix = value.asString();
            } else if (key == "fault_rate") {
                spec.faultRate = value.asDouble();
            } else if (key == "hang_rate") {
                spec.hangRate = value.asDouble();
            } else if (key == "corrupt_rate") {
                spec.corruptRate = value.asDouble();
            } else if (key == "fault_seed") {
                spec.faultSeed = integer<std::uint64_t>(value);
            } else if (key == "surrogate_keep") {
                spec.surrogateKeep = value.asDouble();
            } else {
                throw std::runtime_error("unknown field");
            }
        } catch (const std::exception &e) {
            throw std::runtime_error("job-spec field '" + key +
                                     "': " + e.what());
        }
    }
    return spec;
}

common::Json
toJson(const JobSpec &spec)
{
    common::Json doc = common::Json::object();
    if (!spec.name.empty())
        doc["name"] = spec.name;
    common::Json models = common::Json::array();
    for (const auto &m : spec.models)
        models.push(m);
    doc["models"] = std::move(models);
    common::Json workloads = common::Json::array();
    for (const auto &w : spec.workloads)
        workloads.push(w);
    doc["workloads"] = std::move(workloads);
    doc["backend"] = spec.backend;
    if (!spec.scenario.empty())
        doc["scenario"] = spec.scenario;
    if (!spec.engine.empty())
        doc["engine"] = spec.engine;
    if (spec.areaBudgetMm2 > 0.0)
        doc["area_budget"] = spec.areaBudgetMm2;
    if (spec.maxShapes > 0)
        doc["max_shapes"] = spec.maxShapes;
    doc["algo"] = spec.algo;
    doc["batch"] = spec.batch;
    doc["iters"] = spec.iters;
    doc["bmax"] = spec.bmax;
    doc["seed"] = static_cast<std::int64_t>(spec.seed);
    doc["threads"] = spec.threads;
    if (!spec.checkpoint.empty()) {
        doc["checkpoint"] = spec.checkpoint;
        doc["resume"] = spec.resume;
        doc["checkpoint_every"] = spec.checkpointEvery;
        doc["checkpoint_keep"] = spec.checkpointKeep;
    }
    if (!spec.csvPrefix.empty())
        doc["csv_prefix"] = spec.csvPrefix;
    if (spec.faultRate > 0.0)
        doc["fault_rate"] = spec.faultRate;
    if (spec.hangRate > 0.0)
        doc["hang_rate"] = spec.hangRate;
    if (spec.corruptRate > 0.0)
        doc["corrupt_rate"] = spec.corruptRate;
    if (spec.faultRate > 0.0 || spec.hangRate > 0.0 ||
        spec.corruptRate > 0.0)
        doc["fault_seed"] = static_cast<std::int64_t>(spec.faultSeed);
    if (spec.surrogateKeep > 0.0)
        doc["surrogate_keep"] = spec.surrogateKeep;
    return doc;
}

common::Json
toJson(const JobStatus &status)
{
    common::Json doc = common::Json::object();
    doc["id"] = static_cast<std::int64_t>(status.id);
    if (!status.name.empty())
        doc["name"] = status.name;
    doc["state"] = toString(status.state);
    doc["iteration"] = status.iteration;
    doc["max_iterations"] = status.maxIterations;
    doc["hours"] = status.hours;
    doc["evaluations"] = static_cast<std::int64_t>(status.evaluations);
    doc["front_size"] = status.frontSize;
    doc["records"] = status.records;
    doc["events"] = status.events;
    doc["interrupted"] = status.interrupted;
    if (!status.error.empty())
        doc["error"] = status.error;
    return doc;
}

namespace {

/**
 * Synthesize the CLI flag set a spec's backend options correspond to
 * and run it through parseBackendOptions — the exact validation and
 * defaulting path co_search_cli uses, so the server and the CLI
 * accept and reject backend options identically.
 */
core::BackendOptions
backendOptionsFor(const JobSpec &spec)
{
    std::vector<std::string> argv = {"job-spec"};
    auto add = [&](const char *flag, std::string value) {
        argv.emplace_back(flag);
        argv.push_back(std::move(value));
    };
    if (!spec.scenario.empty())
        add("--scenario", spec.scenario);
    if (!spec.engine.empty())
        add("--engine", spec.engine);
    if (spec.areaBudgetMm2 > 0.0)
        add("--area-budget", std::to_string(spec.areaBudgetMm2));
    if (spec.maxShapes > 0)
        add("--max-shapes", std::to_string(spec.maxShapes));
    std::vector<const char *> ptrs;
    ptrs.reserve(argv.size());
    for (const auto &arg : argv)
        ptrs.push_back(arg.c_str());
    const common::CliArgs args(static_cast<int>(ptrs.size()),
                               ptrs.data());
    return parseBackendOptions(spec.backend, args);
}

/** First validation failure of a spec, or empty when acceptable. */
std::string
validateSpec(const JobSpec &spec)
{
    if (spec.models.empty() && spec.workloads.empty())
        return "spec needs at least one model or workload";
    if (std::string why = searchSizeError(
            spec.batch, spec.iters, spec.bmax,
            static_cast<std::int64_t>(spec.threads));
        !why.empty())
        return why;
    if (spec.resume && spec.checkpoint.empty())
        return "resume requires a checkpoint path";
    if (std::string why = checkpointRotationError(spec.checkpointEvery,
                                                  spec.checkpointKeep);
        !why.empty())
        return why;
    // Written so that NaN fails too.
    if (!(spec.surrogateKeep >= 0.0 && spec.surrogateKeep <= 1.0))
        return "surrogate_keep must be in [0, 1]";
    if (std::string why = faultRateError(spec.faultRate, spec.hangRate,
                                         spec.corruptRate);
        !why.empty())
        return why;
    try {
        driverConfigForAlgo(spec.algo);
    } catch (const std::exception &e) {
        return e.what();
    }
    try {
        backendOptionsFor(spec);
    } catch (const std::exception &e) {
        return e.what();
    }
    return {};
}

} // namespace

/** One managed job: spec, isolated context, life-cycle state and the
 *  replayable progress-event log. Guarded by JobManager::mu_. */
struct JobManager::Job
{
    std::uint64_t id = 0;
    JobSpec spec;
    JobContext ctx;
    JobState state = JobState::Queued;
    bool pauseRequested = false;
    std::string error;
    std::vector<ProgressEvent> events;
    std::optional<CoSearchResult> result;
    /** Signaled on state transitions, pause/resume and new events. */
    std::condition_variable cv;
};

JobManager::JobManager(JobManagerConfig cfg) : cfg_(cfg)
{
    cfg_.maxConcurrent = std::max<std::size_t>(cfg_.maxConcurrent, 1);
    schedulers_.reserve(cfg_.maxConcurrent);
    for (std::size_t i = 0; i < cfg_.maxConcurrent; ++i)
        schedulers_.emplace_back([this] { schedulerLoop(); });
}

JobManager::~JobManager()
{
    shutdown();
    for (auto &t : schedulers_)
        t.join();
    // Tokens outlive their fan-out registration: unregister every
    // job's token (idempotent) only after all schedulers stopped.
    if (cfg_.shutdownFanout)
        for (auto &[id, job] : jobs_)
            common::unregisterShutdownToken(job->ctx.cancel);
}

SubmitResult
JobManager::submit(JobSpec spec)
{
    if (const std::string why = validateSpec(spec); !why.empty())
        return SubmitResult{0, SubmitError::BadSpec, why};

    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_)
        return SubmitResult{0, SubmitError::ShuttingDown,
                            "manager is shutting down"};
    if (queuedCount_ >= cfg_.maxQueued)
        return SubmitResult{
            0, SubmitError::QueueFull,
            "queue full (" + std::to_string(queuedCount_) +
                " jobs queued, bound " +
                std::to_string(cfg_.maxQueued) + ")"};

    auto job = std::make_unique<Job>();
    job->id = nextId_++;
    job->spec = std::move(spec);
    job->ctx.seed = job->spec.seed;
    job->ctx.checkpointPrefix = job->spec.checkpoint;
    if (cfg_.shutdownFanout)
        common::registerShutdownToken(job->ctx.cancel);
    const std::uint64_t id = job->id;
    queue_.push_back(id);
    ++queuedCount_;
    jobs_.emplace(id, std::move(job));
    workCv_.notify_one();
    return SubmitResult{id, SubmitError::None, {}};
}

bool
JobManager::cancel(std::uint64_t id, common::CancelReason reason)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || isTerminal(it->second->state))
        return false;
    Job &job = *it->second;
    job.ctx.cancel.cancel(reason);
    if (job.state == JobState::Queued) {
        // Never started: terminal immediately; the scheduler skips
        // the stale queue entry when it reaches it.
        job.state = JobState::Cancelled;
        job.error = common::toString(reason);
    }
    job.pauseRequested = false; // a paused job must wake to drain
    job.cv.notify_all();
    return true;
}

bool
JobManager::pause(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || isTerminal(it->second->state) ||
        it->second->ctx.cancel.cancelled())
        return false;
    it->second->pauseRequested = true;
    it->second->cv.notify_all();
    return true;
}

bool
JobManager::resume(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || isTerminal(it->second->state))
        return false;
    it->second->pauseRequested = false;
    it->second->cv.notify_all();
    return true;
}

JobStatus
JobManager::statusLocked(const Job &job) const
{
    JobStatus st;
    st.id = job.id;
    st.name = job.spec.name.empty() ? job.spec.algo : job.spec.name;
    st.state = job.state;
    st.maxIterations = job.spec.iters;
    st.events = job.events.size();
    if (!job.events.empty()) {
        const auto &last = job.events.back();
        st.iteration = last.iteration;
        st.hours = last.hours;
        st.evaluations = last.evaluations;
        st.frontSize = last.frontSize;
        st.records = last.records;
    }
    if (job.result)
        st.interrupted = job.result->interrupted;
    st.error = job.error;
    return st;
}

std::optional<JobStatus>
JobManager::status(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return statusLocked(*it->second);
}

std::vector<JobStatus>
JobManager::list() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto &[id, job] : jobs_)
        out.push_back(statusLocked(*job));
    return out;
}

std::optional<JobStatus>
JobManager::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    Job &job = *it->second;
    job.cv.wait(lk, [&] { return isTerminal(job.state); });
    return statusLocked(job);
}

std::vector<ProgressEvent>
JobManager::eventsSince(std::uint64_t id, std::size_t from)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return {};
    Job &job = *it->second;
    job.cv.wait(lk, [&] {
        return job.events.size() > from || isTerminal(job.state);
    });
    std::vector<ProgressEvent> out;
    for (std::size_t i = from; i < job.events.size(); ++i)
        out.push_back(job.events[i]);
    return out;
}

std::optional<CoSearchResult>
JobManager::result(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return it->second->result;
}

void
JobManager::cancelAll(common::CancelReason reason)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &[id, job] : jobs_) {
        if (isTerminal(job->state))
            continue;
        job->ctx.cancel.cancel(reason);
        if (job->state == JobState::Queued) {
            job->state = JobState::Cancelled;
            job->error = common::toString(reason);
        }
        job->pauseRequested = false;
        job->cv.notify_all();
    }
}

void
JobManager::shutdown()
{
    cancelAll(common::CancelReason::JobCancel);
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    workCv_.notify_all();
}

void
JobManager::schedulerLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [&] {
                return stopping_ || !queue_.empty();
            });
            while (!queue_.empty()) {
                const std::uint64_t id = queue_.front();
                queue_.pop_front();
                --queuedCount_;
                Job &candidate = *jobs_.at(id);
                if (candidate.state == JobState::Queued) {
                    job = &candidate;
                    break;
                }
            }
            if (job == nullptr) {
                if (stopping_)
                    return;
                continue;
            }
            job->state = JobState::Running;
            job->cv.notify_all();
        }
        runJob(*job);
    }
}

void
JobManager::runJob(Job &job)
{
    JobState final_state = JobState::Completed;
    std::string error;
    std::optional<CoSearchResult> final_result;
    try {
        // Everything below is private to this job and built on its
        // scheduler thread: workloads, environment, fault injector,
        // surrogate context, driver. The only shared mutable
        // resource is the (byte-neutral) evaluation cache.
        std::vector<workload::Network> nets;
        for (const auto &model : job.spec.models)
            nets.push_back(workload::makeNetwork(model));
        for (const auto &file : job.spec.workloads)
            nets.push_back(workload::parseNetworkFile(file));

        BackendOptions env_opt = backendOptionsFor(job.spec);
        env_opt.cache = cfg_.sharedCache;
        env_opt.cancel = &job.ctx.cancel;

        surrogate::SurrogateContext surrogate_ctx;
        surrogate_ctx.options.enabled = job.spec.surrogateKeep > 0.0;
        if (surrogate_ctx.options.enabled) {
            surrogate_ctx.options.keep = job.spec.surrogateKeep;
            env_opt.surrogate = &surrogate_ctx;
        }

        const std::unique_ptr<CoSearchEnv> backend_env =
            makeBackendEnv(job.spec.backend, std::move(nets), env_opt);

        common::FaultSpec fault_spec;
        fault_spec.transientRate = job.spec.faultRate;
        fault_spec.hangRate = job.spec.hangRate;
        fault_spec.corruptRate = job.spec.corruptRate;
        fault_spec.seed = job.spec.faultSeed;
        FaultyEnv faulty_env(*backend_env,
                             common::FaultPlan(fault_spec));
        CoSearchEnv &env =
            fault_spec.active()
                ? static_cast<CoSearchEnv &>(faulty_env)
                : *backend_env;

        DriverConfig cfg = driverConfigForAlgo(job.spec.algo);
        cfg.batchSize = job.spec.batch;
        cfg.maxIter = job.spec.iters;
        cfg.sh.bMax = job.spec.bmax;
        cfg.realThreads = job.spec.threads;
        cfg.seed = job.spec.seed;
        cfg.checkpointPath = job.spec.checkpoint;
        cfg.resumeFromCheckpoint = job.spec.resume;
        cfg.checkpointEvery = job.spec.checkpointEvery;
        cfg.checkpointKeep = job.spec.checkpointKeep;

        // Observer: append to the job's replayable event log under
        // the manager lock and wake streaming subscribers.
        struct Sink final : ProgressObserver
        {
            JobManager *mgr;
            Job *job;

            Sink(JobManager *m, Job *j) : mgr(m), job(j) {}

            void
            onProgress(const ProgressEvent &event) override
            {
                std::lock_guard<std::mutex> lk(mgr->mu_);
                ProgressEvent ev = event;
                ev.job = job->id;
                job->events.push_back(std::move(ev));
                job->cv.notify_all();
            }
        };
        Sink sink{this, &job};

        CoSearch search(env, cfg, &job.ctx, &sink);
        search.start();
        for (;;) {
            // Pause gate between trials: a pause request parks the
            // scheduler thread here; cancel always wins and wakes
            // the job so it can drain and checkpoint.
            {
                std::unique_lock<std::mutex> lk(mu_);
                while (job.pauseRequested &&
                       !job.ctx.cancel.cancelled()) {
                    if (job.state != JobState::Paused) {
                        job.state = JobState::Paused;
                        job.cv.notify_all();
                    }
                    job.cv.wait(lk);
                }
                if (job.state == JobState::Paused) {
                    job.state = JobState::Running;
                    job.cv.notify_all();
                }
            }
            if (!search.step())
                break;
        }
        CoSearchResult result = search.result();

        if (!job.spec.csvPrefix.empty()) {
            // Same writers, same order as co_search_cli — the three
            // result CSVs plus the fault ledger. cache.csv is
            // skipped: shared-cache hit counters depend on job
            // scheduling and have no per-job meaning.
            const std::string &prefix = job.spec.csvPrefix;
            bool ok =
                writeRecordsCsv(result, env,
                                prefix + "_records.csv") &&
                writeFrontCsv(result, env, prefix + "_front.csv") &&
                writeTraceCsv(result, prefix + "_trace.csv") &&
                writeFaultsCsv(result, prefix + "_faults.csv");
            if (!ok) {
                final_state = JobState::Failed;
                error = "csv write failed: " + prefix;
            }
        }
        if (final_state != JobState::Failed) {
            if (result.interrupted) {
                final_state = JobState::Cancelled;
                error = result.interruptReason;
            } else {
                final_state = JobState::Completed;
            }
        }
        final_result = std::move(result);
    } catch (const std::exception &e) {
        final_state = JobState::Failed;
        error = e.what();
    }

    std::lock_guard<std::mutex> lk(mu_);
    job.state = final_state;
    job.error = std::move(error);
    job.result = std::move(final_result);
    job.cv.notify_all();
}

} // namespace unico::core
