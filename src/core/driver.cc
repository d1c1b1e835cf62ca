#include "core/driver.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <memory>

#include "common/io.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"
#include "core/checkpoint.hh"
#include "core/fidelity.hh"
#include "core/mobo.hh"
#include "core/robustness.hh"
#include "moo/scalarize.hh"

namespace unico::core {

void
FaultStats::merge(const FaultStats &other)
{
    transient += other.transient;
    timeout += other.timeout;
    corrupt += other.corrupt;
    fatal += other.fatal;
    retries += other.retries;
    degradations += other.degradations;
    penalized += other.penalized;
    gpFallbacks += other.gpFallbacks;
    checkpointRecoveries += other.checkpointRecoveries;
    transport.merge(other.transport);
}

std::string
toString(const FaultStats &stats)
{
    std::ostringstream oss;
    oss << "faults: transient=" << stats.transient
        << " timeout=" << stats.timeout << " corrupt=" << stats.corrupt
        << " fatal=" << stats.fatal << " retries=" << stats.retries
        << " degradations=" << stats.degradations
        << " penalized=" << stats.penalized
        << " gp_fallbacks=" << stats.gpFallbacks
        << " ckpt_recoveries=" << stats.checkpointRecoveries;
    if (stats.transport.total() > 0 ||
        stats.transport.workerRespawns > 0 ||
        stats.transport.workSteals > 0 ||
        stats.transport.inprocFallbacks > 0) {
        oss << " | transport: crashes=" << stats.transport.workerCrashes
            << " timeouts=" << stats.transport.requestTimeouts
            << " (hangs=" << stats.transport.workerHangs << ")"
            << " torn=" << stats.transport.tornFrames
            << " corrupt=" << stats.transport.corruptFrames
            << " respawns=" << stats.transport.workerRespawns
            << " steals=" << stats.transport.workSteals
            << " local_fallbacks=" << stats.transport.inprocFallbacks;
        if (stats.transport.connectionsLost > 0 ||
            stats.transport.connectFailures > 0 ||
            stats.transport.staleFrames > 0 ||
            stats.transport.reconnects > 0) {
            oss << " conn_lost=" << stats.transport.connectionsLost
                << " conn_fail=" << stats.transport.connectFailures
                << " stale=" << stats.transport.staleFrames
                << " reconnects=" << stats.transport.reconnects;
        }
    }
    return oss.str();
}

const char *
toString(BudgetMode mode)
{
    switch (mode) {
      case BudgetMode::FullBudget: return "full";
      case BudgetMode::SH: return "sh";
      case BudgetMode::MSH: return "msh";
      case BudgetMode::Hyperband: return "hyperband";
    }
    return "?";
}

const char *
toString(UpdateMode mode)
{
    switch (mode) {
      case UpdateMode::All: return "all";
      case UpdateMode::HighFidelity: return "high-fidelity";
      case UpdateMode::Champion: return "champion";
    }
    return "?";
}

DriverConfig
DriverConfig::unico()
{
    DriverConfig cfg;
    cfg.name = "UNICO";
    cfg.budgetMode = BudgetMode::MSH;
    cfg.updateMode = UpdateMode::HighFidelity;
    cfg.useRobustness = true;
    return cfg;
}

DriverConfig
DriverConfig::hascoLike()
{
    DriverConfig cfg;
    cfg.name = "HASCO";
    cfg.budgetMode = BudgetMode::FullBudget;
    cfg.updateMode = UpdateMode::Champion;
    cfg.useRobustness = false;
    return cfg;
}

DriverConfig
DriverConfig::mobohbLike()
{
    DriverConfig cfg;
    cfg.name = "MOBOHB";
    cfg.budgetMode = BudgetMode::Hyperband;
    cfg.updateMode = UpdateMode::All;
    cfg.useRobustness = false;
    // BOHB interleaves a fixed fraction of random configurations.
    cfg.randomFraction = 1.0 / 3.0;
    return cfg;
}

DriverConfig
DriverConfig::shChampion()
{
    DriverConfig cfg;
    cfg.name = "SH+ChampionUpdate";
    cfg.budgetMode = BudgetMode::SH;
    cfg.updateMode = UpdateMode::Champion;
    cfg.useRobustness = false;
    return cfg;
}

DriverConfig
DriverConfig::mshChampion()
{
    DriverConfig cfg;
    cfg.name = "MSH+ChampionUpdate";
    cfg.budgetMode = BudgetMode::MSH;
    cfg.updateMode = UpdateMode::Champion;
    cfg.useRobustness = false;
    return cfg;
}

std::size_t
CoSearchResult::minDistanceRecord() const
{
    assert(!front.empty());
    // The representative is picked among fully-searched designs (an
    // early-stopped sample's mapping is low fidelity and not what a
    // designer would ship), normalized by the nadir of that same
    // subset so low-fidelity archive points cannot skew the scales.
    std::vector<const moo::ParetoFront::Entry *> shippable;
    for (const auto &entry : front.entries())
        if (records[entry.id].fullySearched)
            shippable.push_back(&entry);
    if (shippable.empty()) {
        const auto nadir = moo::nadirPoint(front.points());
        return static_cast<std::size_t>(
            front.minDistanceEntry(nadir).id);
    }
    std::vector<moo::Objectives> pts;
    pts.reserve(shippable.size());
    for (const auto *entry : shippable)
        pts.push_back(entry->objectives);
    const auto nadir = moo::nadirPoint(pts);

    const moo::ParetoFront::Entry *best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const auto *entry : shippable) {
        double acc = 0.0;
        for (std::size_t i = 0; i < entry->objectives.size(); ++i) {
            const double s = nadir[i] > 0.0 ? nadir[i] : 1.0;
            const double v = entry->objectives[i] / s;
            acc += v * v;
        }
        if (acc < best_dist) {
            best_dist = acc;
            best = entry;
        }
    }
    return static_cast<std::size_t>(best->id);
}

DriverConfig
driverConfigForAlgo(const std::string &algo)
{
    if (algo == "unico")
        return DriverConfig::unico();
    if (algo == "hasco")
        return DriverConfig::hascoLike();
    if (algo == "mobohb")
        return DriverConfig::mobohbLike();
    if (algo == "sh")
        return DriverConfig::shChampion();
    if (algo == "msh")
        return DriverConfig::mshChampion();
    throw std::invalid_argument("unknown algorithm '" + algo +
                                "' (expected unico|hasco|mobohb|sh|msh)");
}

namespace {

/** Penalty objectives recorded for HW with no feasible mapping;
 *  fixed constants keep min-max normalization bounded. */
moo::Objectives
penaltyObjectives(std::size_t dims)
{
    moo::Objectives y = {1e6, 1e5, 1e3, 10.0};
    y.resize(dims, 10.0);
    return y;
}

/** The common::monotonicNow() time point @p seconds from now, or 0
 *  (no deadline) when @p seconds is not positive. */
double
deadlineIn(double seconds)
{
    return seconds > 0.0 ? common::monotonicNow() + seconds : 0.0;
}

/** True once the clock has reached @p deadline; never for 0. */
bool
passed(double deadline)
{
    return deadline > 0.0 && common::monotonicNow() >= deadline;
}

} // namespace

CoSearch::CoSearch(CoSearchEnv &env, DriverConfig cfg, JobContext *ctx,
                   ProgressObserver *observer)
    : env_(env), cfg_(std::move(cfg)),
      ctx_(ctx != nullptr ? ctx : &ownedCtx_), observer_(observer),
      checkpointWriter_(std::make_unique<CheckpointWriter>())
{
    assert(cfg_.batchSize >= 1);
    assert(cfg_.maxIter >= 1);
}

CoSearch::~CoSearch() = default;

bool
CoSearch::pollInterrupt()
{
    // One internal run token fed at every poll by (a) the external
    // shutdown token (SIGINT/SIGTERM), (b) the job's own cancel token
    // (job-manager cancel) and (c) a clock read against the whole-run
    // deadline. Everything below — trial boundaries, SH rounds,
    // thread-pool queue, evaluation chunks — polls through here, and
    // the thread pool skips queued jobs once the token is set.
    if (cfg_.cancel != nullptr && cfg_.cancel->cancelled())
        runToken_.cancel(common::CancelReason::Signal);
    if (ctx_->cancel.cancelled())
        runToken_.cancel(ctx_->cancel.reason());
    if (passed(runDeadline_))
        runToken_.cancel(common::CancelReason::RunDeadline);
    return runToken_.cancelled();
}

void
CoSearch::emit(ProgressEvent event)
{
    if (observer_ == nullptr)
        return;
    event.iteration = completedIters_;
    event.maxIterations = cfg_.maxIter;
    event.hours = ctx_->clock.hours();
    event.evaluations = ctx_->clock.evaluations();
    event.frontSize = result_.front.size();
    event.records = result_.records.size();
    observer_->onProgress(event);
}

void
CoSearch::emitIncumbentIfChanged()
{
    if (observer_ == nullptr || result_.front.empty())
        return;
    const std::size_t idx = result_.minDistanceRecord();
    if (idx == lastIncumbent_)
        return;
    lastIncumbent_ = idx;
    const auto &rec = result_.records[idx];
    ProgressEvent ev;
    ev.kind = ProgressKind::IncumbentChanged;
    ev.detail = env_.describeHw(rec.hw);
    ev.bestLatencyMs = rec.ppa.latencyMs;
    ev.bestPowerMw = rec.ppa.powerMw;
    ev.bestAreaMm2 = rec.ppa.areaMm2;
    emit(std::move(ev));
}

void
CoSearch::saveCheckpoint(int completed)
{
    if (cfg_.checkpointPath.empty())
        return;
    const std::string key = configFingerprint(cfg_);
    const std::string &document = checkpointWriter_->format(
        CheckpointSource{key, stackId_, completed, ctx_->clock.seconds(),
                         ctx_->clock.evaluations(), *sampler_, *selector_,
                         result_});
    const auto st = saveCheckpointRotated(cfg_.checkpointPath, document,
                                          cfg_.checkpointKeep);
    if (st.ok()) {
        lastSavedIter_ = completed;
        ProgressEvent ev;
        ev.kind = ProgressKind::CheckpointWritten;
        ev.detail = cfg_.checkpointPath;
        emit(std::move(ev));
    } else {
        result_.warnings.push_back("checkpoint save failed: " +
                                   st.message);
    }
}

void
CoSearch::start()
{
    if (started_)
        return;
    started_ = true;

    numObj_ = cfg_.useRobustness ? 4 : 3;
    MoboConfig mobo_cfg;
    mobo_cfg.randomFraction = cfg_.randomFraction;
    // GP grid-search fits reuse the evaluation worker budget; the
    // selection is thread-count independent, so this only affects
    // wall-clock.
    mobo_cfg.gpThreads = cfg_.realThreads;
    sampler_ = std::make_unique<MoboHwSampler>(env_.hwSpace(), numObj_,
                                               cfg_.seed, mobo_cfg);
    selector_ = std::make_unique<HighFidelitySelector>(
        std::vector<double>(numObj_,
                            1.0 / static_cast<double>(numObj_)));
    ctx_->clock = common::EvalClock(cfg_.workers);
    championW_.assign(numObj_, 1.0 / static_cast<double>(numObj_));

    // Even the smallest SH round must seed every layer once.
    minBudget_ = std::max(cfg_.minBudgetPerRound, env_.minSeedBudget());

    // Persistent round-dispatch pool: one set of workers for every SH
    // round of the whole run, instead of a fresh pool per grow_to()
    // call. realThreads <= 1 keeps the historical inline execution.
    // Constructed here — after the evaluation fleet (if any) forked
    // its zygote from a single-threaded process.
    if (cfg_.realThreads > 1)
        roundPool_ =
            std::make_unique<common::ThreadPool>(cfg_.realThreads);
    runDeadline_ = deadlineIn(cfg_.wallDeadlineSeconds);

    stackId_ = common::StackIdentity::of(env_);

    // --- Checkpoint resume: restore sampler, selector, clock and
    // archive, then continue with the first unfinished trial. Seeds
    // of a trial's mapping runs derive from (seed, trial, slot), so
    // an interrupted trial re-runs identically from its start.
    // Resume walks the rotation window newest-first and skips any
    // generation that fails CRC/parse validation.
    startIter_ = 0;
    if (cfg_.resumeFromCheckpoint && !cfg_.checkpointPath.empty()) {
        if (auto rec = loadNewestValidCheckpoint(cfg_.checkpointPath,
                                                 cfg_.checkpointKeep)) {
            if (const auto compat = checkpointCompatibility(
                    rec->checkpoint, configFingerprint(cfg_), stackId_);
                !compat.ok())
                throw CheckpointMismatchError("checkpoint '" +
                                              rec->path +
                                              "': " + compat.message);
            sampler_->restoreState(rec->checkpoint.samplerState);
            selector_->restoreState(rec->checkpoint.selector);
            ctx_->clock.restore(rec->checkpoint.clockSeconds,
                                rec->checkpoint.clockEvaluations);
            result_ = std::move(rec->checkpoint.result);
            checkpointWriter_->reset();
            startIter_ = rec->checkpoint.completedIterations;
            result_.faults.checkpointRecoveries +=
                static_cast<std::uint64_t>(rec->rejected.size());
            for (const auto &why : rec->rejected)
                result_.warnings.push_back("checkpoint fallback: " +
                                           why);
            if (rec->generation > 0)
                result_.warnings.push_back(
                    "resumed from rotated generation '" + rec->path +
                    "' (" + std::to_string(rec->generation) +
                    " save(s) old)");
        }
    }

    completedIters_ = startIter_;
    lastSavedIter_ = startIter_;
    iter_ = startIter_;

    ProgressEvent ev;
    ev.kind = ProgressKind::Started;
    ev.detail = stackId_.backend;
    emit(std::move(ev));
}

bool
CoSearch::step()
{
    if (!started_)
        start();
    if (sealed_ || result_.interrupted || iter_ >= cfg_.maxIter)
        return false;
    if (pollInterrupt())
        return false;
    runTrial();
    return !result_.interrupted && iter_ < cfg_.maxIter;
}

void
CoSearch::runTrial()
{
    // Rollback snapshot: an interrupt mid-trial discards the
    // partial trial (clock charges and fault counts included) so
    // the final checkpoint holds exactly the last completed-trial
    // state and a resume replays the straight run bit-for-bit.
    const double snap_seconds = ctx_->clock.seconds();
    const std::uint64_t snap_evals = ctx_->clock.evaluations();
    const FaultStats snap_faults = result_.faults;
    // With a sparse cadence the final interrupted save happens
    // mid-window, so the sampler (whose RNG already advanced for
    // the discarded trial's batch) must be rolled back too. With
    // the default cadence of 1 the on-disk checkpoint already
    // holds the boundary state and no snapshot is needed.
    common::Json snap_sampler;
    const bool need_sampler_snap =
        !cfg_.checkpointPath.empty() && cfg_.checkpointEvery > 1;
    if (need_sampler_snap)
        snap_sampler = sampler_->saveState();
    // Batch size and round count for this trial. Hyperband
    // cycles through SH brackets of decreasing aggressiveness:
    // bracket s starts n_s ~ (s_max+1)/(s+1) * eta^s candidates
    // at budget bMax * eta^{-s}.
    std::size_t batch_n = static_cast<std::size_t>(cfg_.batchSize);
    int rounds = shRounds(batch_n);
    if (cfg_.budgetMode == BudgetMode::Hyperband) {
        const double eta = cfg_.sh.eta;
        const double budget_ratio = std::max(
            static_cast<double>(cfg_.sh.bMax) /
                static_cast<double>(std::max(minBudget_, 1)),
            eta);
        const int s_max = std::max(
            1, static_cast<int>(
                   std::floor(std::log(budget_ratio) /
                              std::log(eta))));
        const int s = s_max - (iter_ % (s_max + 1));
        rounds = s + 1;
        batch_n = static_cast<std::size_t>(std::llround(
            (s_max + 1.0) / (s + 1.0) * std::pow(eta, s)));
        batch_n = std::clamp<std::size_t>(
            batch_n, 2,
            static_cast<std::size_t>(2 * cfg_.batchSize));
    }

    // --- Line 4: sample a batch of N hardware configurations.
    // GP-fit failures inside the sampler degrade to space-filling
    // proposals instead of aborting; surface them as fault-stat
    // deltas so interrupt rollback stays consistent.
    const std::uint64_t gp_before = sampler_->gpFallbacks();
    const auto batch = sampler_->sampleBatch(batch_n);
    result_.faults.gpFallbacks += sampler_->gpFallbacks() - gp_before;

    std::vector<std::unique_ptr<MappingRun>> runs;
    runs.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        runs.push_back(env_.createRun(
            batch[i], cfg_.seed ^ (0x9e3779b97f4a7c15ULL *
                                   (iter_ * 1000 + i + 1))));

    // --- Lines 5-9: adaptive SW mapping search, supervised.
    std::vector<std::size_t> alive(batch.size());
    for (std::size_t i = 0; i < alive.size(); ++i)
        alive[i] = i;

    // Per-candidate fault state, persistent across SH rounds.
    struct CandidateHealth
    {
        int faults = 0;    ///< faults observed so far
        bool degraded = false;
        bool failed = false; ///< retries exhausted or fatal
    };
    std::vector<CandidateHealth> health(batch.size());

    auto grow_to = [&](const std::vector<std::size_t> &set,
                       int budget) {
        std::vector<double> task_seconds(set.size(), 0.0);
        std::vector<FaultStats> job_faults(set.size());
        // Each job owns one MappingRun, so the round's jobs run
        // concurrently on host threads without synchronization
        // and deterministically (Sec. 3.5). A job supervises its
        // candidate: faults are caught and classified, retries
        // get capped exponential backoff (charged as search
        // cost), repeated faults degrade the PPA engine, and
        // exhausted candidates fall back to penalty PPA instead
        // of aborting the search.
        std::vector<std::function<void()>> jobs;
        jobs.reserve(set.size());
        for (std::size_t i = 0; i < set.size(); ++i) {
            jobs.push_back([&, i] {
                const std::size_t idx = set[i];
                MappingRun &run = *runs[idx];
                CandidateHealth &hs = health[idx];
                FaultStats &fs = job_faults[i];
                if (hs.failed)
                    return; // penalty fallback: no more work
                double seconds = 0.0;
                int attempts = 0;
                int target = budget;
                for (;;) {
                    if (pollInterrupt())
                        break; // abandoned; the trial rolls back
                    const double before = run.chargedSeconds();
                    const int spent_before = run.spent();
                    auto st = common::EvalStatus::Ok;
                    bool corrupt = false;
                    const double deadline =
                        deadlineIn(cfg_.evalWallDeadlineSeconds);
                    try {
                        // Chunked stepping is bit-identical to
                        // one large step (the engine advances one
                        // sweep at a time) but gives the deadlines
                        // and the shutdown path cooperative
                        // cancellation points. pollInterrupt()
                        // (not a bare runToken_ read) so an
                        // external job-cancel is seen here and
                        // cannot be misclassified as a stalled
                        // engine below.
                        constexpr int kChunk = 4;
                        while (run.spent() < target) {
                            if (passed(deadline) || pollInterrupt())
                                break;
                            const int chunk_before = run.spent();
                            run.step(std::min(
                                kChunk, target - run.spent()));
                            if (run.spent() == chunk_before)
                                break; // stalled; guarded below
                        }
                        // Corrupted-result detection: garbage
                        // PPA (NaN/negative) must never reach
                        // the archive or the surrogate.
                        if (!run.bestPpa().valid()) {
                            st = common::EvalStatus::Transient;
                            corrupt = true;
                        }
                    } catch (const common::EvalFault &f) {
                        st = f.status();
                    } catch (const std::exception &) {
                        st = common::EvalStatus::Fatal;
                    }
                    seconds += run.chargedSeconds() - before;
                    if (pollInterrupt())
                        break; // interrupted; trial is discarded
                    if (st == common::EvalStatus::Ok &&
                        run.spent() < target && passed(deadline))
                        st = common::EvalStatus::Timeout;
                    if (st == common::EvalStatus::Ok) {
                        if (run.spent() >= target)
                            break; // healthy and complete
                        if (run.spent() == spent_before) {
                            // No fault, no progress: broken
                            // engine; do not spin forever.
                            st = common::EvalStatus::Fatal;
                        } else {
                            continue;
                        }
                    }
                    // --- Fault path: classify, then recover.
                    ++hs.faults;
                    switch (st) {
                      case common::EvalStatus::Timeout:
                        ++fs.timeout;
                        break;
                      case common::EvalStatus::Fatal:
                        ++fs.fatal;
                        break;
                      default:
                        if (corrupt)
                            ++fs.corrupt;
                        else
                            ++fs.transient;
                    }
                    if (st == common::EvalStatus::Fatal ||
                        attempts >= cfg_.recovery.maxRetries) {
                        hs.failed = true;
                        ++fs.penalized;
                        break;
                    }
                    ++attempts;
                    ++fs.retries;
                    // Capped exponential backoff, charged to the
                    // virtual clock like any other search cost.
                    seconds += std::min(
                        RecoveryConfig::kBackoffCapSeconds,
                        RecoveryConfig::kBackoffBaseSeconds *
                            std::pow(2.0, attempts - 1));
                    // Degradation ladder: repeated faults on one
                    // candidate drop it from the cycle-level
                    // simulator to the analytical rung.
                    if (!hs.degraded &&
                        hs.faults >=
                            cfg_.recovery.degradeAfterFaults &&
                        run.degradeToAnalytical()) {
                        hs.degraded = true;
                        ++fs.degradations;
                    }
                    // A corrupted incumbent with the budget fully
                    // spent needs one repair re-evaluation.
                    if (corrupt && run.spent() >= target)
                        target = run.spent() + 1;
                }
                task_seconds[i] = seconds;
            });
        }
        if (roundPool_ != nullptr)
            common::runParallel(jobs, *roundPool_, &runToken_);
        else
            common::runParallel(jobs, cfg_.realThreads, &runToken_);
        for (const auto &fs : job_faults)
            result_.faults.merge(fs);
        ctx_->clock.chargeParallel(task_seconds);
    };

    // Drop penalty-fallback candidates from an alive set so SH
    // rounds proceed with the N-f survivors.
    auto drop_failed = [&](std::vector<std::size_t> &set) {
        std::vector<std::size_t> healthy;
        healthy.reserve(set.size());
        for (std::size_t idx : set)
            if (!health[idx].failed)
                healthy.push_back(idx);
        set = std::move(healthy);
    };

    if (cfg_.budgetMode == BudgetMode::FullBudget) {
        grow_to(alive, std::max(cfg_.sh.bMax, minBudget_));
    } else {
        for (int j = 1; j <= rounds && !alive.empty(); ++j) {
            const int budget =
                roundBudget(cfg_.sh, j, rounds, minBudget_);
            grow_to(alive, budget);
            if (pollInterrupt())
                break; // survivor stats may be half-grown
            drop_failed(alive);
            if (j == rounds || alive.empty())
                break;
            // Survivor selection by TV (and AUC under MSH).
            std::vector<double> tv, auc;
            tv.reserve(alive.size());
            auc.reserve(alive.size());
            for (std::size_t idx : alive) {
                tv.push_back(runs[idx]->bestLossHistory().back());
                auc.push_back(
                    convergenceAuc(runs[idx]->bestLossHistory()));
            }
            // MSH/SH keep kFrac of the set; Hyperband brackets
            // keep 1/eta per round.
            const double keep_frac =
                cfg_.budgetMode == BudgetMode::Hyperband
                    ? 1.0 / cfg_.sh.eta
                    : cfg_.sh.kFrac;
            const auto k = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::floor(
                       keep_frac *
                       static_cast<double>(alive.size()))));
            const std::size_t p =
                cfg_.budgetMode == BudgetMode::MSH
                    ? static_cast<std::size_t>(std::floor(
                          cfg_.sh.pFrac *
                          static_cast<double>(alive.size())))
                    : 0;
            const auto keep = selectSurvivors(tv, auc, k, p);
            std::vector<std::size_t> next;
            next.reserve(keep.size());
            for (std::size_t local : keep)
                next.push_back(alive[local]);
            alive = std::move(next);
        }
    }

    // --- Graceful interrupt: drain happened inside runParallel
    // (queued jobs skipped, started jobs finished). Discard the
    // partial trial entirely — clock charges and fault counters
    // included — so the checkpoint holds the last completed-trial
    // state and a resume replays the straight run bit-for-bit.
    if (pollInterrupt()) {
        ctx_->clock.restore(snap_seconds, snap_evals);
        result_.faults = snap_faults;
        if (need_sampler_snap)
            sampler_->restoreState(snap_sampler);
        checkpointWriter_->reset();
        result_.interrupted = true;
        result_.interruptReason =
            common::toString(runToken_.reason());
        return;
    }

    // --- Assess the batch: final PPA, robustness, constraints.
    std::vector<moo::Objectives> batch_y(batch.size());
    std::vector<std::size_t> record_idx(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        HwEvalRecord rec;
        rec.hw = batch[i];
        rec.ppa = runs[i]->bestPpa();
        rec.budgetSpent = runs[i]->spent();
        rec.iteration = iter_;
        rec.faults = health[i].faults;
        rec.degraded = health[i].degraded;
        // Penalty fallback: a candidate whose supervisor gave up
        // (or whose incumbent is still corrupt after repair) is
        // recorded as infeasible so the penalty objectives keep
        // the surrogate informed without poisoning the archive.
        if (health[i].failed || !rec.ppa.valid()) {
            rec.ppa = accel::Ppa::infeasible();
            rec.penalized = true;
        }
        // R is always recorded (it is cheap and Sec. 4.3 inspects
        // it even for runs trained without it); useRobustness
        // only controls whether it becomes a 4th objective.
        rec.sensitivity = runs[i]->sensitivity(cfg_.alpha);
        rec.constraintOk =
            rec.ppa.feasible &&
            rec.ppa.powerMw <= env_.powerBudgetMw() &&
            rec.ppa.areaMm2 <= env_.areaBudgetMm2();
        rec.fullySearched = rec.budgetSpent >= cfg_.sh.bMax;

        if (rec.ppa.feasible) {
            batch_y[i] = {rec.ppa.latencyMs, rec.ppa.powerMw,
                          rec.ppa.areaMm2};
            if (cfg_.useRobustness)
                batch_y[i].push_back(rec.sensitivity);
        } else {
            batch_y[i] = penaltyObjectives(numObj_);
        }

        record_idx[i] = result_.records.size();
        result_.records.push_back(std::move(rec));
    }

    // --- Lines 10-12: surrogate update and Pareto maintenance.
    for (std::size_t i = 0; i < batch.size(); ++i)
        sampler_->observe(batch[i], batch_y[i], false);

    std::vector<std::size_t> hf_local;
    switch (cfg_.updateMode) {
      case UpdateMode::All:
        for (std::size_t i = 0; i < batch.size(); ++i)
            hf_local.push_back(i);
        break;
      case UpdateMode::Champion: {
        std::size_t best = 0;
        double best_v = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const double v = moo::parego(
                sampler_->normalize(batch_y[i]), championW_);
            if (v < best_v) {
                best_v = v;
                best = i;
            }
        }
        hf_local.push_back(best);
        break;
      }
      case UpdateMode::HighFidelity: {
        std::vector<moo::Objectives> normalized;
        normalized.reserve(batch.size());
        for (const auto &y : batch_y)
            normalized.push_back(sampler_->normalize(y));
        hf_local = selector_->select(normalized);
        break;
      }
    }
    for (std::size_t local : hf_local) {
        const std::size_t obs_index =
            sampler_->observations() - batch.size() + local;
        sampler_->setHighFidelity(obs_index, true);
        result_.records[record_idx[local]].highFidelity = true;
    }

    // Every constraint-satisfying sample is a real (HW, mapping)
    // design point and enters the archive; the min-distance
    // *representative* is restricted to fully-searched designs.
    const std::size_t front_before = result_.front.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto &rec = result_.records[record_idx[i]];
        if (rec.constraintOk) {
            result_.front.insert({rec.ppa.latencyMs, rec.ppa.powerMw,
                                 rec.ppa.areaMm2},
                                record_idx[i]);
        }
    }

    ctx_->clock.chargeOverhead(1.0); // surrogate refit bookkeeping
    result_.trace.push_back(
        TracePoint{ctx_->clock.hours(), result_.front.points()});

    completedIters_ = iter_ + 1;
    ++iter_;

    emit(ProgressEvent{ProgressKind::TrialCompleted});
    const int front_delta = static_cast<int>(result_.front.size()) -
                            static_cast<int>(front_before);
    if (front_delta != 0) {
        ProgressEvent ev;
        ev.kind = ProgressKind::FrontDelta;
        ev.frontDelta = front_delta;
        emit(std::move(ev));
    }
    emitIncumbentIfChanged();

    // --- Checkpoint cadence: persist the complete resumable
    // state every checkpointEvery finished trials (CRC trailer,
    // fsync + atomic rename, rotation window).
    const int every = std::max(cfg_.checkpointEvery, 1);
    if ((completedIters_ - startIter_) % every == 0)
        saveCheckpoint(completedIters_);
}

CoSearchResult
CoSearch::result()
{
    if (!started_)
        start();
    if (sealed_)
        return result_;
    sealed_ = true;

    // An interrupt that lands exactly on an iteration boundary needs
    // no rollback but is still an early exit.
    if (!result_.interrupted && runToken_.cancelled()) {
        result_.interrupted = true;
        result_.interruptReason = common::toString(runToken_.reason());
    }
    // Final save: cover trials completed since the last cadence save
    // (also the drain path of an interrupted run).
    if (!cfg_.checkpointPath.empty() &&
        completedIters_ != lastSavedIter_)
        saveCheckpoint(completedIters_);

    result_.totalHours = ctx_->clock.hours();
    // Count actual PPA queries (budget spent), not scheduled jobs.
    result_.evaluations = 0;
    for (const auto &rec : result_.records)
        result_.evaluations +=
            static_cast<std::uint64_t>(rec.budgetSpent);
    if (const accel::EvalCache *cache = env_.evalCache())
        result_.cacheStats = cache->stats();
    result_.surrogateStats = env_.surrogateStats();
    // Snapshot at the very end (after any rollback restored
    // result_.faults): transport counters live in the env, not in the
    // per-iteration fault ledger, so an interrupted-iteration
    // rollback must not erase them.
    result_.faults.transport = env_.transportStats();

    ProgressEvent ev;
    ev.kind = ProgressKind::Finished;
    ev.interrupted = result_.interrupted;
    ev.detail = result_.interruptReason;
    if (observer_ != nullptr && !result_.front.empty()) {
        const auto &rec = result_.records[result_.minDistanceRecord()];
        ev.bestLatencyMs = rec.ppa.latencyMs;
        ev.bestPowerMw = rec.ppa.powerMw;
        ev.bestAreaMm2 = rec.ppa.areaMm2;
    }
    emit(std::move(ev));
    return result_;
}

CoOptimizer::CoOptimizer(CoSearchEnv &env, DriverConfig cfg,
                         JobContext *ctx, ProgressObserver *observer)
    : search_(env, std::move(cfg), ctx, observer)
{}

CoSearchResult
CoOptimizer::run()
{
    search_.start();
    while (search_.step()) {
    }
    return search_.result();
}

} // namespace unico::core
