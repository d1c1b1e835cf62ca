/**
 * @file
 * Distributed evaluation fleet: master/worker evaluation behind the
 * CoSearchEnv seam.
 *
 * UNICO's original deployment (Sec. 3.5) ran evaluations on a
 * master/worker cluster of four machines; this module reproduces
 * that topology with worker *processes* so a crashed, hung or
 * babbling evaluation can never take the co-search down with it.
 * FleetEnv decorates any environment: createRun() returns a proxy
 * whose step/sensitivity/degrade calls are serialized into
 * fixed-layout binary records (core/fleet_wire) in CRC-64 frames
 * (common/frame) and served by worker processes forked from a
 * pre-threading zygote (common/subprocess).
 *
 * Determinism is the design invariant. A mapping run is a pure
 * function of (hardware point, seed) and of the op sequence applied
 * to it, so the master keeps each proxy's full op history and every
 * request carries it. A fresh worker — first spawn, respawn after a
 * SIGKILL, or an off-home worker serving a stolen request — replays
 * the history and lands in the bit-identical state, injected
 * evaluation faults included (the fault oracle is a pure function of
 * (stream, index)). Transport faults are therefore *transparent*:
 * trajectories, Pareto fronts and checkpoints are byte-identical to
 * the in-process run regardless of worker count, work stealing,
 * worker kills, or the circuit breaker falling back to local
 * evaluation. The TransportStats counters record what the fleet
 * absorbed without ever entering the search state.
 *
 * Placement: run affinity uses rendezvous (highest-random-weight)
 * hashing of the run fingerprint over the live workers, so each
 * worker's process-local evaluation-cache shard serves a stable
 * slice of the fingerprint space and a worker's death only moves its
 * own runs. An idle worker steals requests whose home worker is
 * busy.
 */

#ifndef UNICO_CORE_FLEET_HH
#define UNICO_CORE_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "core/env.hh"

namespace unico::core {

/** Fleet topology and transport-supervisor policy. */
struct FleetConfig
{
    /** Worker processes to fork (>= 1). */
    std::size_t workers = 4;
    /** Real-seconds deadline per request round-trip; expiry kills
     *  the worker (hang) and replays elsewhere. <= 0 disables. */
    double requestDeadlineSeconds = 30.0;
    /** Transport-level attempts per request (across respawns /
     *  steals) before the circuit breaker evaluates in-process. */
    int maxRequestRetries = 3;
    /** Circuit breaker: respawns per worker slot before the slot is
     *  declared flapping and permanently retired. When every slot is
     *  retired the whole fleet degrades to in-process evaluation. */
    int maxRespawnsPerWorker = 3;
    /** Chaos testing: SIGKILL a worker before this many requests,
     *  at deterministic seeded points (0 = no chaos). The kills hit
     *  real worker processes mid-run; results must not change. */
    int chaosKills = 0;
    std::uint64_t chaosSeed = 0x5eedULL;
    /** Chaos testing: workers corrupt every Nth response frame
     *  (payload bit flip) to exercise CRC rejection (0 = off). */
    int chaosCorruptEvery = 0;

    /** Multi-host mode: non-empty "host:port" switches the fleet
     *  from forked socketpair workers to a TCP listener that adopts
     *  remote workers as they dial in (":0" picks a free port). */
    std::string listenAddr;
    /** TCP: how long the master waits for each *initial* worker to
     *  connect before starting with a smaller fleet. */
    double connectWaitSeconds = 30.0;
    /** TCP: write the bound port here the moment the listener is up —
     *  BEFORE waiting for workers, who need it to dial in (the
     *  chicken-and-egg a ":0" port otherwise creates). Empty = off. */
    std::string listenPortFile;
    /** TCP: how long each reopen attempt waits for a partitioned /
     *  killed worker to dial back in. Each failed attempt consumes
     *  one unit of the slot's maxRespawnsPerWorker budget and counts
     *  a ConnectFailure, feeding the circuit breaker. */
    double reconnectWaitSeconds = 5.0;
};

/** Options for a remote worker process (see runFleetWorkerClient). */
struct FleetWorkerOptions
{
    /** Master address to dial ("host:port"). */
    std::string connectAddr;
    /** Per-attempt connect + handshake deadline. */
    double connectDeadlineSeconds = 10.0;
    /** Cap of the jittered exponential reconnect backoff,
     *  0.05 s * 2^k. */
    double reconnectMaxSeconds = 2.0;
    /** Consecutive failed connect attempts before giving up. */
    int maxReconnectAttempts = 10;
    /** Chaos knobs applied inside the worker. */
    FleetConfig cfg;
};

/**
 * Run this process as a remote fleet worker: dial the master, serve
 * framed evaluation requests over TCP, and on disconnection (network
 * fault, hard partition, master-side kill of the channel) reconnect
 * with jittered exponential backoff under a bumped session epoch —
 * resident runs survive the reconnect, and op-history replay makes
 * resumption exactly-once. Returns a process exit code: 0 after a
 * clean shutdown ("bye" from the master, or the master going away
 * after at least one successful session), 1 when the master was
 * never reachable, 2 when the master rejected this worker's stack
 * identity (wrong backend/scenario/workload).
 */
int runFleetWorkerClient(const CoSearchEnv &env,
                         const FleetWorkerOptions &opts);

/** Rendezvous (highest-random-weight) score of worker slot @p slot
 *  for the run key (@p hi, @p lo). Exposed so placement stability is
 *  unit-testable: scores are pure, so the argmax over alive slots is
 *  deterministic across processes and removing one slot only moves
 *  the runs whose argmax was that slot. */
std::uint64_t rendezvousScore(std::uint64_t hi, std::uint64_t lo,
                              std::size_t slot);

/** Home slot for a run key: argmax of rendezvousScore over slots
 *  where @p alive is true, the lowest on ties; -1 when none are. The
 *  fleet sends each request to its run's home unless that slot is
 *  busy. */
int rendezvousHome(std::uint64_t hi, std::uint64_t lo,
                   const std::vector<bool> &alive);

namespace detail {
class WorkerPool;
}

/**
 * Master-side fleet decorator over any co-search environment. Every
 * query but createRun() and transportStats() is the inner env's (see
 * EnvDecorator). Stack identity: the fleet is execution topology, not
 * search identity, so checkpoints written in fleet mode resume
 * in-process and vice versa. Surrogate counters: screens are per-run
 * and train wherever the run executes, so the master-side context only
 * sees runs the circuit breaker pulled in-process (worker-process
 * counters die with the workers — diagnostics, not search state).
 */
class FleetEnv : public EnvDecorator
{
  public:
    /**
     * Fork the zygote and the initial worker fleet, or, with
     * FleetConfig::listenAddr set, bind the TCP listener and wait for
     * the initial remote workers. MUST be constructed while the
     * process is single-threaded (before the driver starts its pool);
     * @p inner must outlive the wrapper. If no worker can be spawned
     * (fork limits) the env still works — every run silently
     * evaluates in-process and inprocFallbacks counts them.
     * @throws std::runtime_error naming the address and the reason
     *         when the listen address cannot be bound.
     */
    FleetEnv(CoSearchEnv &inner, FleetConfig cfg);
    ~FleetEnv() override;

    std::unique_ptr<MappingRun>
    createRun(const accel::HwPoint &h, std::uint64_t seed) const override;
    common::TransportStats transportStats() const override;

    /** Workers currently alive (0 = fully degraded to in-process). */
    std::size_t liveWorkers() const;

    /** Pids of the live workers (chaos harnesses kill these). */
    std::vector<std::int64_t> workerPids() const;

    /** Bound TCP port in multi-host mode (resolves ":0"), else -1. */
    int listenPort() const;

  private:
    std::unique_ptr<detail::WorkerPool> pool_;
};

} // namespace unico::core

#endif // UNICO_CORE_FLEET_HH
