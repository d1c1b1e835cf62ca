/**
 * @file
 * Per-job execution context.
 *
 * The historical driver stack assumed "process == run": one global
 * shutdown token, one EvalClock. A JobContext bundles exactly the
 * state that must be private to one co-search job so several jobs
 * can coexist in a single process — each with its own virtual-time
 * ledger and cancellation token — while sharing only the read-mostly
 * evaluation cache.
 *
 * The stepped driver (core::CoSearch) accepts an optional JobContext;
 * when given one it charges the job's clock and polls the job's
 * cancel token at every cooperative boundary. A shutdown signal does
 * not touch this token: the driver polls the process shutdown token
 * beside it (DriverConfig::cancel).
 */

#ifndef UNICO_CORE_JOB_CONTEXT_HH
#define UNICO_CORE_JOB_CONTEXT_HH

#include "common/cancel.hh"
#include "common/eval_clock.hh"

namespace unico::core {

/** State private to one co-search job. */
struct JobContext
{
    /** The job's virtual-time ledger. Re-dimensioned by
     *  CoSearch::start() to the configured worker-pool size. */
    common::EvalClock clock;
    /** The job's cancellation token: cancelled by the job manager
     *  (cancel endpoint, shutdown drain). */
    common::CancelToken cancel;
};

} // namespace unico::core

#endif // UNICO_CORE_JOB_CONTEXT_HH
