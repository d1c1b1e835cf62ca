/**
 * @file
 * Structured error taxonomy for PPA evaluations.
 *
 * Sec. 3.5 deploys each successive-halving round as standalone
 * parallel jobs on a master/worker cluster, where individual
 * evaluations (cycle-level simulations in particular) can hang,
 * crash or return garbage. The supervisor classifies every failed
 * evaluation into one of these categories and picks a recovery
 * policy per category (retry, degrade, penalize) instead of
 * aborting the whole multi-hour co-search.
 */

#ifndef UNICO_COMMON_STATUS_HH
#define UNICO_COMMON_STATUS_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace unico::common {

/** Outcome category of one PPA evaluation (or evaluation batch). */
enum class EvalStatus {
    Ok,         ///< evaluation completed and the result is usable
    Transient,  ///< spurious failure (crash, garbage result); retryable
    Timeout,    ///< exceeded its virtual-time deadline; retryable
    Infeasible, ///< completed, but no feasible mapping exists
    Fatal,      ///< non-retryable failure (bad input, broken engine)
};

/** Human-readable category name. */
inline const char *
toString(EvalStatus status)
{
    switch (status) {
      case EvalStatus::Ok: return "ok";
      case EvalStatus::Transient: return "transient";
      case EvalStatus::Timeout: return "timeout";
      case EvalStatus::Infeasible: return "infeasible";
      case EvalStatus::Fatal: return "fatal";
    }
    return "?";
}

/** True for categories a supervisor may retry (with backoff). */
inline bool
retryable(EvalStatus status)
{
    return status == EvalStatus::Transient ||
           status == EvalStatus::Timeout;
}

/**
 * Transport-layer fault category of the distributed evaluation
 * fleet. Unlike EvalStatus (what happened to the *evaluation*),
 * these classify what happened to the *conversation* with a worker
 * process. Every one of them is recovered transparently by the fleet
 * supervisor — kill + respawn + deterministic replay — so search
 * trajectories stay byte-identical to in-process evaluation; the
 * categories exist so FaultStats can report what the transport
 * absorbed.
 */
enum class TransportFault {
    WorkerCrash,    ///< worker process died (EOF / EPIPE / SIGCHLD)
    RequestTimeout, ///< no response within the request deadline
    TornFrame,      ///< stream ended mid-frame (short read)
    CorruptFrame,   ///< CRC-64 mismatch or malformed frame header
    WorkerHang,     ///< deadline expired with the worker still alive
    ConnectionLost, ///< established network channel dropped mid-use
    ConnectFailure, ///< could not (re)establish a network channel
    StaleFrame,     ///< CRC-valid reply for an earlier request
                    ///< (duplicate/reordered delivery), discarded
};

/** Human-readable transport-fault name. */
inline const char *
toString(TransportFault fault)
{
    switch (fault) {
      case TransportFault::WorkerCrash: return "worker-crash";
      case TransportFault::RequestTimeout: return "request-timeout";
      case TransportFault::TornFrame: return "torn-frame";
      case TransportFault::CorruptFrame: return "corrupt-frame";
      case TransportFault::WorkerHang: return "worker-hang";
      case TransportFault::ConnectionLost: return "connection-lost";
      case TransportFault::ConnectFailure: return "connect-failure";
      case TransportFault::StaleFrame: return "stale-frame";
    }
    return "?";
}

/**
 * Per-category transport fault counters plus the recovery actions
 * the fleet supervisor took. Diagnostics only: recovery is
 * transparent to the search, so these are never serialized into
 * checkpoints and never enter the records/front/trace CSVs — which
 * is what keeps fleet-mode outputs byte-identical to in-process
 * runs even when workers are killed mid-search.
 */
struct TransportStats
{
    std::uint64_t workerCrashes = 0;
    std::uint64_t requestTimeouts = 0;
    std::uint64_t tornFrames = 0;
    std::uint64_t corruptFrames = 0;
    /** Sub-annotation of requestTimeouts: expiries where the worker
     *  process was confirmed still alive and had to be SIGKILLed (a
     *  hung worker, vs. one whose death the deadline surfaced). Not
     *  part of total(). */
    std::uint64_t workerHangs = 0;
    /** Network fault categories (multi-host transport). A lost
     *  connection is a distinct event from a worker crash: the
     *  process may be healthy on the far host and reconnect. */
    std::uint64_t connectionsLost = 0;
    std::uint64_t connectFailures = 0;
    /** CRC-valid frames whose request nonce did not match the
     *  in-flight request (duplicated or reordered delivery). They are
     *  skipped, not retried, so they are not part of total(). */
    std::uint64_t staleFrames = 0;
    std::uint64_t workerRespawns = 0;  ///< replacement workers forked
    std::uint64_t reconnects = 0;      ///< remote channels re-adopted
    std::uint64_t heartbeats = 0;      ///< ping ops answered
    std::uint64_t workSteals = 0;      ///< requests served off-home
    std::uint64_t inprocFallbacks = 0; ///< circuit-breaker local evals
    /** Successful request round-trips (one framed request + reply).
     *  With op coalescing one round-trip carries many mutating ops,
     *  so opsApplied / requestRoundTrips measures batching leverage. */
    std::uint64_t requestRoundTrips = 0;
    std::uint64_t opsApplied = 0; ///< mutating ops acked by workers

    /** Total transport faults across exclusive categories. */
    std::uint64_t
    total() const
    {
        return workerCrashes + requestTimeouts + tornFrames +
               corruptFrames + connectionsLost + connectFailures;
    }

    /** Bump the counter of one observed fault. */
    void
    count(TransportFault fault)
    {
        switch (fault) {
          case TransportFault::WorkerCrash: ++workerCrashes; break;
          case TransportFault::RequestTimeout: ++requestTimeouts; break;
          case TransportFault::TornFrame: ++tornFrames; break;
          case TransportFault::CorruptFrame: ++corruptFrames; break;
          case TransportFault::WorkerHang: ++workerHangs; break;
          case TransportFault::ConnectionLost: ++connectionsLost; break;
          case TransportFault::ConnectFailure: ++connectFailures; break;
          case TransportFault::StaleFrame: ++staleFrames; break;
        }
    }

    /** Accumulate another counter set. */
    void
    merge(const TransportStats &other)
    {
        workerCrashes += other.workerCrashes;
        requestTimeouts += other.requestTimeouts;
        tornFrames += other.tornFrames;
        corruptFrames += other.corruptFrames;
        workerHangs += other.workerHangs;
        connectionsLost += other.connectionsLost;
        connectFailures += other.connectFailures;
        staleFrames += other.staleFrames;
        workerRespawns += other.workerRespawns;
        reconnects += other.reconnects;
        heartbeats += other.heartbeats;
        workSteals += other.workSteals;
        inprocFallbacks += other.inprocFallbacks;
        requestRoundTrips += other.requestRoundTrips;
        opsApplied += other.opsApplied;
    }
};

/**
 * Exception form of a failed evaluation, thrown by fault injectors
 * and failure-aware engines; supervisors catch it and map the status
 * onto their recovery policy.
 */
class EvalFault : public std::runtime_error
{
  public:
    EvalFault(EvalStatus status, const std::string &what)
        : std::runtime_error(what), status_(status)
    {}

    EvalStatus status() const { return status_; }

  private:
    EvalStatus status_;
};

} // namespace unico::common

#endif // UNICO_COMMON_STATUS_HH
