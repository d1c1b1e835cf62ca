#include "core/fleet.hh"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/frame.hh"
#include "common/rng.hh"
#include "common/shard_cache.hh"
#include "common/subprocess.hh"
#include "core/fleet_transport.hh"
#include "core/fleet_wire.hh"
#include "net/socket.hh"
#include "net/tcp_transport.hh"

namespace unico::core {

namespace {

using common::EvalFault;
using common::EvalStatus;
using common::mix64;

/** Stable identity of one mapping run: fingerprint of (hw, seed).
 *  Master and worker compute it with the same code, so placement
 *  (rendezvous hashing) and the worker resident cache agree. */
common::Fingerprint
runKey(const accel::HwPoint &h, std::uint64_t seed)
{
    common::FingerprintBuilder b;
    b.add(std::uint64_t{0xf1ee70001ULL}); // domain tag
    b.add(seed);
    b.add(static_cast<std::uint64_t>(h.size()));
    for (const auto v : h)
        b.add(static_cast<std::uint64_t>(v));
    return b.fingerprint();
}

/** Apply one op of a run's history to @p run, letting evaluation
 *  faults propagate. A run's history is the exact sequence of
 *  mutating calls made on it — including calls that threw, since a
 *  faulted step still advances the run's internal evaluation index.
 *  Returns degradeToAnalytical()'s result for a degrade op, false for
 *  a step. */
bool
apply(MappingRun &run, const wire::Op &op)
{
    if (op.kind == wire::OpKind::Degrade)
        return run.degradeToAnalytical();
    run.step(op.arg);
    return false;
}

/** @p record as one sealed frame in @p frame: encoded straight after
 *  the reserved header, then the header filled in. */
template <class Record>
void
frameRecord(const Record &record, std::string &frame)
{
    common::beginFrame(frame);
    wire::encode(record, frame);
    common::sealFrame(frame);
}

} // namespace

std::uint64_t
rendezvousScore(std::uint64_t hi, std::uint64_t lo, std::size_t slot)
{
    // Highest-random-weight: a pure function of (key, slot), so the
    // per-key ranking of slots is stable across processes and runs,
    // and removing a slot only moves the keys whose argmax it was.
    return mix64(hi ^ mix64(lo ^ (slot + 1)));
}

int
rendezvousHome(std::uint64_t hi, std::uint64_t lo,
               const std::vector<bool> &alive)
{
    int home = -1;
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < alive.size(); ++i) {
        if (!alive[i])
            continue;
        const std::uint64_t score = rendezvousScore(hi, lo, i);
        if (home < 0 || score > best) {
            home = static_cast<int>(i);
            best = score;
        }
    }
    return home;
}

namespace {

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/** Runs resident in one worker; the least recently used beyond this
 *  are evicted and rebuilt by history replay on their next request. */
constexpr std::size_t kWorkerResidentRuns = 256;

/** Outcome record of one applied op, kept so a re-request after a
 *  lost/corrupt response can answer with the identical result
 *  without re-applying the op. */
struct DoneOp
{
    wire::Op op;
    EvalStatus status = EvalStatus::Ok;
    std::string message;
    bool degraded = false;
};

/** One run resident in a worker, plus the ops already applied. */
struct ResidentRun
{
    std::unique_ptr<MappingRun> run;
    std::vector<DoneOp> done;
    std::uint64_t stamp = 0; ///< LRU clock
};

/** Run @p fn, capturing an evaluation fault as (status, message)
 *  instead of letting it unwind: the master re-raises it from the
 *  response, preserving in-process exception semantics across the
 *  process boundary. */
template <class Fn>
EvalStatus
captureFault(Fn &&fn, std::string &message)
{
    try {
        fn();
        return EvalStatus::Ok;
    } catch (const EvalFault &f) {
        message = f.what();
        return f.status();
    } catch (const std::exception &e) {
        message = e.what();
        return EvalStatus::Fatal;
    }
}

/** Apply one op and record its outcome. */
DoneOp
applyOp(MappingRun &run, const wire::Op &op)
{
    DoneOp d;
    d.op = op;
    d.status = captureFault([&] { d.degraded = apply(run, op); },
                            d.message);
    return d;
}

/** True if @p done (by op identity) is a prefix of @p ops. */
bool
isPrefix(const std::vector<DoneOp> &done, const std::vector<wire::Op> &ops)
{
    if (done.size() > ops.size())
        return false;
    for (std::size_t i = 0; i < done.size(); ++i)
        if (!(done[i].op == ops[i]))
            return false;
    return true;
}

/** How one pass over a request stream ended. */
enum class ServeExit {
    PeerClosed,   ///< clean EOF / dead peer: channel is gone
    StreamBroken, ///< torn or corrupt request stream: unusable
    Bye,          ///< master said goodbye: shut down for good
};

/**
 * Serves framed evaluation requests inside one worker process. The
 * server outlives individual channels: a remote worker that loses
 * its connection keeps this object (resident runs and all) and
 * serves the next channel after reconnecting.
 */
class WorkerServer
{
  public:
    WorkerServer(int fd, const CoSearchEnv &env, FleetConfig cfg)
        : fd_(fd), env_(env), cfg_(cfg)
    {}

    /** Point the server at a (re)connected channel. */
    void setFd(int fd) { fd_ = fd; }

    /** Zygote workers: serve until the stream ends, then die. */
    [[noreturn]] void
    serve()
    {
        switch (serveLoop()) {
          case ServeExit::PeerClosed:
          case ServeExit::Bye:
            ::_exit(0); // master closed our socket: clean drain
          case ServeExit::StreamBroken:
            ::_exit(3); // request stream torn/corrupt: unusable
        }
        ::_exit(3);
    }

    /** Serve requests until the current channel ends. Remote worker
     *  clients call this per connection and reconnect on
     *  PeerClosed/StreamBroken; Bye means shut down. */
    ServeExit
    serveLoop()
    {
        for (;;) {
            const auto st = common::readFrame(fd_, payload_);
            if (st == common::FrameStatus::Eof)
                return ServeExit::PeerClosed;
            if (st != common::FrameStatus::Ok)
                return ServeExit::StreamBroken;
            if (!handle())
                return ServeExit::Bye; // no reply; master is leaving
            ++responses_;
            if (cfg_.chaosCorruptEvery > 0 &&
                responses_ % static_cast<std::uint64_t>(
                                 cfg_.chaosCorruptEvery) ==
                    0) {
                // Flip one payload bit AFTER the CRC was computed, so
                // the master's decoder must catch it.
                frame_[common::kFrameHeaderSize] ^= 0x01;
            }
            if (common::writeFull(fd_, frame_) != common::IoStatus::Ok)
                return ServeExit::PeerClosed; // master went away
        }
    }

  private:
    /** Answer the request in payload_ with one sealed reply frame in
     *  frame_; false for a bye, which gets no reply. Nothing thrown
     *  escapes: a request that cannot be decoded or served (a
     *  malformed record, a point outside the design space, a failed
     *  createRun) is answered with a failure reply, which sends the
     *  run in-process on the master. */
    bool
    handle()
    {
        const wire::WireError error = wire::decode(payload_, req_);
        // The nonce is echoed even in a failure reply, so it passes
        // the master's duplicate/reorder filter.
        reply_.nonce = req_.nonce;
        if (error != wire::WireError::None) {
            fail(std::string("malformed request: ") +
                 wire::toString(error));
        } else if (req_.kind == wire::RequestKind::Bye) {
            return false;
        } else if (req_.kind == wire::RequestKind::Ping) {
            // Heartbeat: prove the channel and this process are live
            // without touching any run state.
            reply_.kind = wire::ReplyKind::Pong;
        } else {
            try {
                serveRun();
            } catch (const std::exception &e) {
                fail(e.what());
            }
        }
        frameRecord(reply_, frame_);
        return true;
    }

    void
    fail(std::string message)
    {
        reply_.kind = wire::ReplyKind::Failure;
        reply_.message = std::move(message);
    }

    /**
     * Serve a sync or sense. The request ships the run's full op
     * history plus the master's `done` watermark: ops [0, done) were
     * already acked (replayed here if missing, swallowing faults),
     * ops [done, size) are pending and applied in order, stopping
     * after the first non-Ok op. A sense additionally computes
     * sensitivity once the history is fully applied. The reply
     * carries the run's full observable state.
     */
    void
    serveRun()
    {
        // The decoders of the hardware spaces only assert on the
        // point, so a point from the wire is checked before any run
        // is built from it.
        if (!env_.hwSpace().contains(req_.hw))
            throw std::invalid_argument(
                "hardware point outside the design space");
        const std::vector<wire::Op> &ops = req_.ops;
        ResidentRun &res = materialize(req_.hw, req_.seed, ops);

        // Replay any acked history the resident is missing, swallowing
        // faults: each was already raised to the master by whichever
        // worker first applied the op, and purity of the fault
        // streams makes the recurrence bit-identical.
        while (res.done.size() < req_.done)
            res.done.push_back(applyOp(*res.run, ops[res.done.size()]));

        // Apply the pending tail in order, stopping after the first
        // non-Ok op (the master drops everything it queued beyond a
        // fault — the unbatched master would never have issued it).
        // Ops a lost/corrupted response already applied are answered
        // idempotently from the record instead of re-applied.
        EvalStatus status = EvalStatus::Ok;
        std::string message;
        bool degraded = false;
        std::uint32_t applied = 0;
        for (std::size_t i = req_.done; i < ops.size(); ++i) {
            if (res.done.size() <= i)
                res.done.push_back(applyOp(*res.run, ops[i]));
            const DoneOp &d = res.done[i];
            ++applied;
            status = d.status;
            message = d.message;
            degraded = d.degraded;
            if (status != EvalStatus::Ok)
                break;
        }

        double sense = 0.0;
        if (req_.kind == wire::RequestKind::Sense &&
            status == EvalStatus::Ok)
            status = captureFault(
                [&] { sense = res.run->sensitivity(req_.alpha); },
                message);

        reply_.kind = wire::ReplyKind::State;
        reply_.status = status;
        reply_.message = std::move(message);
        reply_.degraded = degraded;
        reply_.applied = applied;
        reply_.spent = res.run->spent();
        reply_.seconds = res.run->chargedSeconds();
        reply_.ppa = res.run->bestPpa();
        reply_.sense = sense;
        reply_.hist = res.run->bestLossHistory();
    }

    /** Find or rebuild the resident run for (hw, seed); evict LRU
     *  residents beyond the cap. A resident whose applied ops are not
     *  a prefix of the requested history has diverged (stale steal
     *  target) and is rebuilt from scratch. */
    ResidentRun &
    materialize(const accel::HwPoint &hw, std::uint64_t seed,
                const std::vector<wire::Op> &ops)
    {
        const common::Fingerprint key = runKey(hw, seed);
        const auto mapKey = std::make_pair(key.hi, key.lo);
        auto it = runs_.find(mapKey);
        if (it != runs_.end() && !isPrefix(it->second.done, ops)) {
            runs_.erase(it);
            it = runs_.end();
        }
        if (it == runs_.end()) {
            ResidentRun res;
            res.run = env_.createRun(hw, seed);
            it = runs_.emplace(mapKey, std::move(res)).first;
        }
        it->second.stamp = ++clock_;
        while (runs_.size() > kWorkerResidentRuns) {
            auto victim = runs_.end();
            for (auto j = runs_.begin(); j != runs_.end(); ++j)
                if (j != it &&
                    (victim == runs_.end() ||
                     j->second.stamp < victim->second.stamp))
                    victim = j;
            if (victim == runs_.end())
                break;
            runs_.erase(victim);
        }
        return it->second;
    }

    int fd_;
    const CoSearchEnv &env_;
    FleetConfig cfg_;
    // Buffers reused by every request.
    std::string payload_;
    std::string frame_;
    wire::Request req_;
    wire::Reply reply_;
    std::uint64_t responses_ = 0;
    std::uint64_t clock_ = 0;
    std::map<std::pair<std::uint64_t, std::uint64_t>, ResidentRun>
        runs_;
};

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/** PR 6 topology: workers forked on demand by the single-threaded
 *  zygote, one AF_UNIX socketpair each. spawn() is not thread-safe,
 *  so this transport carries its own mutex — the pool deliberately
 *  calls open() outside its lock. */
class ZygoteTransport : public FleetTransport
{
  public:
    ZygoteTransport(const CoSearchEnv &inner, const FleetConfig &cfg)
    {
        factory_ = std::make_unique<common::WorkerFactory>(
            [&inner, cfg](int fd) {
                WorkerServer server(fd, inner, cfg);
                server.serve();
            });
    }

    bool
    ok() const override
    {
        return factory_ && factory_->ok();
    }

    bool
    open(WorkerChannel &out, double /*wait_seconds*/) override
    {
        std::lock_guard<std::mutex> lock(spawnMutex_);
        if (!ok())
            return false;
        common::WorkerHandle h;
        if (!factory_->spawn(h))
            return false;
        // Nonblocking on the master side so request deadlines bind on
        // the write path too (the io helpers poll on EAGAIN).
        common::setNonblocking(h.fd);
        out = WorkerChannel{};
        out.fd = h.fd;
        out.pid = h.pid;
        return true;
    }

    bool retryableOpenFailure() const override { return false; }

  private:
    std::mutex spawnMutex_;
    std::unique_ptr<common::WorkerFactory> factory_;
};

/** Multi-host topology: a TCP listener adopts remote workers as they
 *  dial in and handshake. open() waits on the ready queue — a
 *  reconnect after a partition is just the next adoption, carrying
 *  the worker's session id and bumped epoch. */
class TcpTransport : public FleetTransport
{
  public:
    TcpTransport(const CoSearchEnv &inner, const FleetConfig &cfg)
    {
        listener_ = std::make_unique<net::TcpFleetListener>(
            cfg.listenAddr, common::StackIdentity::of(inner));
        std::string error;
        if (!listener_->start(&error))
            throw std::runtime_error("fleet: cannot listen on '" +
                                     cfg.listenAddr + "': " + error);
        if (!cfg.listenPortFile.empty()) {
            // Must land before the pool starts waiting for workers:
            // with ":0" the workers learn the port from this file.
            std::ofstream out(cfg.listenPortFile, std::ios::trunc);
            out << listener_->port() << "\n";
        }
    }

    bool
    open(WorkerChannel &out, double wait_seconds) override
    {
        net::TcpChannel ch;
        if (!listener_->awaitChannel(wait_seconds, ch))
            return false;
        out = WorkerChannel{};
        out.fd = ch.fd;
        out.session = ch.session;
        out.epoch = ch.epoch;
        out.remote = true;
        return true;
    }

    bool retryableOpenFailure() const override { return true; }
    int listenPort() const override { return listener_->port(); }

  private:
    std::unique_ptr<net::TcpFleetListener> listener_;
};

} // namespace

// ---------------------------------------------------------------------------
// Master side: worker pool
// ---------------------------------------------------------------------------

namespace detail {

/**
 * Owns the worker channels and the transport supervisor. All
 * public methods are thread-safe; frame I/O and channel opens happen
 * outside the pool lock so a slow evaluation — or a seconds-long
 * TCP reconnect wait — on one slot never blocks requests to the
 * others.
 */
class WorkerPool
{
  public:
    WorkerPool(const CoSearchEnv &inner, const FleetConfig &cfg)
        : cfg_(cfg)
    {
        // The zygote must fork before the driver goes multithreaded;
        // FleetEnv's constructor contract guarantees we are called
        // single-threaded here. (The TCP listener starts a thread,
        // which is why the transport choice happens first.)
        if (!cfg_.listenAddr.empty())
            transport_ = std::make_unique<TcpTransport>(inner, cfg_);
        else
            transport_ = std::make_unique<ZygoteTransport>(inner, cfg_);
        slots_.resize(std::max<std::size_t>(1, cfg_.workers));
        for (auto &slot : slots_) {
            if (!transport_->ok())
                break;
            WorkerChannel ch;
            if (!openChannel(ch, cfg_.connectWaitSeconds))
                continue;
            slot.ch = ch;
            slot.alive = true;
            if (ch.remote)
                ++stats_.heartbeats;
        }
        if (cfg_.chaosKills > 0) {
            std::uint64_t z = cfg_.chaosSeed;
            std::uint64_t at = 0;
            for (int i = 0; i < cfg_.chaosKills; ++i) {
                z = mix64(z);
                at += 2 + z % 9;
                killAt_.insert(at);
            }
        }
    }

    ~WorkerPool()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &slot : slots_) {
            if (!slot.alive)
                continue;
            if (slot.ch.remote && slot.ch.fd >= 0) {
                // Tell the remote worker to shut down instead of
                // treating our close as a partition to reconnect
                // through.
                wire::Request bye;
                bye.kind = wire::RequestKind::Bye;
                std::string frame;
                frameRecord(bye, frame);
                common::writeFullUntil(slot.ch.fd, frame,
                                       common::monotonicNow() + 1.0);
            }
            ::close(slot.ch.fd); // a local worker _exit(0)s on the EOF
            slot.alive = false;
        }
        transport_.reset(); // zygote drains / listener stops
    }

    int
    listenPort() const
    {
        return transport_ ? transport_->listenPort() : -1;
    }

    /**
     * One supervised request round-trip: frame the request, send it,
     * and read the matching response under ONE absolute deadline
     * covering the write, the read, and any duplicate/reordered
     * stale replies skipped along the way — a slow-loris peer
     * dribbling bytes cannot stretch a request past
     * requestDeadlineSeconds by keeping individual reads alive.
     * Each attempt stamps @p req with a fresh nonce. Returns false
     * only when the circuit breaker is open (no live workers, or the
     * retry budget is exhausted); the caller then evaluates
     * in-process. On true, @p reply holds the decoded, nonce-matched
     * reply.
     */
    bool
    call(const common::Fingerprint &key, wire::Request &req,
         wire::Reply &reply)
    {
        const int attempts = std::max(1, cfg_.maxRequestRetries);
        std::string frame;
        for (int attempt = 0; attempt < attempts; ++attempt) {
            std::int64_t pid = -1;
            int fd = -1;
            bool chaosKill = false;
            bool remote = false;
            const int idx = acquire(key, pid, fd, chaosKill, remote);
            if (idx < 0)
                return false; // fleet fully degraded
            if (chaosKill && pid > 0) {
                // Chaos harness: murder the worker we are about to
                // talk to. The conversation must recover and the
                // search must not notice.
                ::kill(static_cast<pid_t>(pid), SIGKILL);
            }

            req.nonce = nextNonce();
            frameRecord(req, frame);
            const double deadline =
                cfg_.requestDeadlineSeconds > 0.0
                    ? common::monotonicNow() + cfg_.requestDeadlineSeconds
                    : 0.0;
            switch (exchange(fd, frame, req.nonce, deadline, reply)) {
              case common::FrameStatus::Ok:
                release(idx);
                return true;
              case common::FrameStatus::Torn:
                fault(idx, common::TransportFault::TornFrame, false);
                break;
              case common::FrameStatus::Corrupt:
                fault(idx, common::TransportFault::CorruptFrame, false);
                break;
              case common::FrameStatus::Timeout:
                // Deadline expired on the write or the read. If the
                // process is local and still there it is hung (vs. a
                // death the deadline surfaced); remote liveness is
                // unknowable here.
                fault(idx, common::TransportFault::RequestTimeout,
                      !remote && pid > 0 &&
                          ::kill(static_cast<pid_t>(pid), 0) == 0);
                break;
              case common::FrameStatus::Eof:
              case common::FrameStatus::Error:
                fault(idx,
                      remote ? common::TransportFault::ConnectionLost
                             : common::TransportFault::WorkerCrash,
                      false);
                break;
            }
        }
        return false; // retry budget exhausted: degrade this request
    }

    void
    noteInprocFallback()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.inprocFallbacks;
    }

    void
    noteOpsApplied(std::uint64_t n)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.opsApplied += n;
    }

    common::TransportStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

    std::size_t
    liveWorkers() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t n = 0;
        for (const auto &slot : slots_)
            n += slot.alive ? 1 : 0;
        return n;
    }

    std::vector<std::int64_t>
    pids() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::int64_t> out;
        for (const auto &slot : slots_)
            if (slot.alive && slot.ch.pid > 0)
                out.push_back(slot.ch.pid);
        return out;
    }

  private:
    struct Slot
    {
        WorkerChannel ch;
        bool alive = false;
        bool busy = false;
        /** A reopen is in flight outside the lock; the slot may come
         *  back, so acquire() must wait rather than declare the
         *  fleet dead. */
        bool opening = false;
        int respawns = 0; ///< reopen budget consumed
    };

    /** Bound on duplicate/reordered replies skipped per request; a
     *  babbling channel is a fault, not an infinite read loop. */
    static constexpr int kMaxStaleSkips = 8;

    std::uint64_t
    nextNonce()
    {
        return nonce_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /**
     * Send the sealed request @p frame and read frames until one
     * decodes and carries @p nonce, all under the absolute
     * @p deadline, skipping a bounded number of stale replies
     * (duplicated or reordered deliveries of earlier exchanges on this
     * channel). On Ok @p reply holds the decoded reply. A write
     * failure reports as Timeout or Error; a CRC-clean but
     * undecodable reply as Corrupt (a worker bug: the request is
     * replayable, so it is retried elsewhere); a babbling channel as
     * Error.
     */
    common::FrameStatus
    exchange(int fd, const std::string &frame, std::uint64_t nonce,
             double deadline, wire::Reply &reply)
    {
        switch (common::writeFullUntil(fd, frame, deadline)) {
          case common::IoStatus::Ok:
            break;
          case common::IoStatus::Timeout:
            return common::FrameStatus::Timeout;
          default:
            return common::FrameStatus::Error;
        }
        std::string payload;
        for (int skips = 0; skips <= kMaxStaleSkips; ++skips) {
            const auto st = common::readFrameUntil(fd, payload, deadline);
            if (st != common::FrameStatus::Ok)
                return st;
            if (wire::decode(payload, reply) != wire::WireError::None)
                return common::FrameStatus::Corrupt;
            if (reply.nonce != nonce) {
                // A CRC-valid reply to an EARLIER request: the network
                // duplicated or reordered it. Discard and keep
                // reading — the real reply is still in flight.
                noteStaleFrame();
                continue;
            }
            return common::FrameStatus::Ok;
        }
        // More stale frames than any plausible reorder produces: the
        // channel is babbling. Treat as a lost conversation.
        return common::FrameStatus::Error;
    }

    /** Open one channel, waiting up to @p wait seconds; a remote
     *  channel must also pass validateRemote(). Called OUTSIDE the
     *  pool lock. */
    bool
    openChannel(WorkerChannel &ch, double wait)
    {
        if (!transport_->open(ch, wait))
            return false;
        if (ch.remote && !validateRemote(ch)) {
            ::close(ch.fd);
            return false;
        }
        return true;
    }

    /**
     * Heartbeat a freshly adopted remote channel: one ping/pong
     * round-trip under a short deadline proves the worker end is
     * live and speaking the protocol before the slot trusts it with
     * a real (potentially expensive) request.
     */
    bool
    validateRemote(const WorkerChannel &ch)
    {
        const double wait =
            cfg_.requestDeadlineSeconds > 0.0
                ? std::min(5.0,
                           std::max(0.5, cfg_.requestDeadlineSeconds))
                : 5.0;
        wire::Request ping;
        ping.kind = wire::RequestKind::Ping;
        ping.nonce = nextNonce();
        std::string frame;
        frameRecord(ping, frame);
        wire::Reply r;
        return exchange(ch.fd, frame, ping.nonce,
                        common::monotonicNow() + wait,
                        r) == common::FrameStatus::Ok &&
               r.kind == wire::ReplyKind::Pong;
    }

    /**
     * Pick a worker for @p key: its rendezvous-hash home when idle,
     * otherwise steal any idle worker; block while all live workers
     * are busy or any slot is mid-reopen. Returns the slot index
     * (marked busy) or -1 when the fleet has no live workers left
     * and none can come back.
     */
    int
    acquire(const common::Fingerprint &key, std::int64_t &pid,
            int &fd, bool &chaosKill, bool &remote)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        std::vector<bool> alive(slots_.size());
        for (;;) {
            bool anyOpening = false;
            int idle = -1;
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                anyOpening |= slots_[i].opening;
                alive[i] = slots_[i].alive;
                if (idle < 0 && slots_[i].alive && !slots_[i].busy)
                    idle = static_cast<int>(i);
            }
            // Highest-random-weight: a stable per-key order that only
            // reshuffles the dead worker's keys.
            const int home = rendezvousHome(key.hi, key.lo, alive);
            if (home < 0) {
                if (!anyOpening)
                    return -1;
                // A reopen may yet repopulate the fleet; wait for it
                // to resolve rather than opening the breaker early.
                available_.wait(lock);
                continue;
            }
            int pick = -1;
            if (!slots_[static_cast<std::size_t>(home)].busy) {
                pick = home;
            } else if (idle >= 0) {
                pick = idle;
                ++stats_.workSteals;
            }
            if (pick >= 0) {
                Slot &slot = slots_[static_cast<std::size_t>(pick)];
                slot.busy = true;
                pid = slot.ch.pid;
                fd = slot.ch.fd;
                remote = slot.ch.remote;
                const std::uint64_t req = ++requestIndex_;
                chaosKill = killAt_.count(req) > 0;
                return pick;
            }
            available_.wait(lock);
        }
    }

    /** Mark a successful round-trip done and free the slot. */
    void
    release(int idx)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requestRoundTrips;
        slots_[static_cast<std::size_t>(idx)].busy = false;
        available_.notify_all();
    }

    void
    noteStaleFrame()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.count(common::TransportFault::StaleFrame);
    }

    /**
     * Transport supervision for a failed conversation: count the
     * fault, tear the channel down (killing the process when it is
     * a local fork), and reopen a replacement — a zygote respawn, or
     * an adoption of the remote worker dialing back in. Each reopen
     * attempt consumes one unit of the slot's budget; when the
     * budget is gone the slot is retired for good, and when every
     * slot is retired the fleet degrades to in-process replay.
     */
    void
    fault(int idx, common::TransportFault f, bool hang)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stats_.count(f);
        if (hang)
            stats_.count(common::TransportFault::WorkerHang);
        Slot &slot = slots_[static_cast<std::size_t>(idx)];
        if (!slot.ch.remote && slot.ch.pid > 0)
            ::kill(static_cast<pid_t>(slot.ch.pid), SIGKILL);
        if (slot.ch.fd >= 0)
            ::close(slot.ch.fd);
        slot.ch = WorkerChannel{};
        slot.alive = false;
        slot.busy = false;

        // Reopen OUTSIDE the lock: a zygote spawn is quick, but a TCP
        // reconnect legitimately waits seconds for the worker to dial
        // back — other slots must keep serving meanwhile. The
        // `opening` flag keeps acquire() from declaring the fleet
        // dead while this is in flight.
        while (slot.respawns < cfg_.maxRespawnsPerWorker &&
               transport_ && transport_->ok()) {
            ++slot.respawns;
            slot.opening = true;
            lock.unlock();
            WorkerChannel ch;
            const bool opened =
                openChannel(ch, cfg_.reconnectWaitSeconds);
            lock.lock();
            slot.opening = false;
            if (opened) {
                slot.ch = ch;
                slot.alive = true;
                if (ch.remote) {
                    ++stats_.heartbeats;
                    if (ch.epoch > 0)
                        ++stats_.reconnects; // same worker, back again
                    else
                        ++stats_.workerRespawns; // a fresh process
                } else {
                    ++stats_.workerRespawns;
                }
                break;
            }
            if (!transport_->retryableOpenFailure())
                break; // the zygote cannot fork: retire the slot now
            stats_.count(common::TransportFault::ConnectFailure);
        }
        available_.notify_all();
    }

    FleetConfig cfg_;
    std::unique_ptr<FleetTransport> transport_;

    mutable std::mutex mutex_;
    std::condition_variable available_;
    std::vector<Slot> slots_;
    common::TransportStats stats_;
    std::uint64_t requestIndex_ = 0;
    std::atomic<std::uint64_t> nonce_{0};
    std::set<std::uint64_t> killAt_;
};

} // namespace detail

// ---------------------------------------------------------------------------
// Master side: run proxy
// ---------------------------------------------------------------------------

namespace {

/**
 * Master-side proxy for a mapping run evaluated by the fleet. Keeps
 * the full mutating-op history so any worker can reconstruct the
 * run's exact state, and mirrors the last-known state (spent,
 * charged seconds, best PPA, loss history) so read accessors never
 * touch the transport. When the pool's circuit breaker opens, the
 * proxy rebuilds the run in-process from the same history and
 * continues locally — byte-identical either way.
 *
 * Op coalescing: step() only queues the op and advances an
 * optimistic eval count; the queued batch ships in ONE framed request
 * when a state read (bestPpa / bestLossHistory / chargedSeconds /
 * sensitivity / degradeToAnalytical) needs ground truth. The
 * supervisor's chunked stepping loop thereby pays one round-trip per
 * supervised attempt instead of one per chunk. A fault inside the
 * batch truncates the queued tail (ops_.resize): the unbatched master
 * would have seen the fault at that op and never issued the tail, so
 * trajectories stay byte-identical.
 */
class RemoteRun : public MappingRun
{
  public:
    RemoteRun(const CoSearchEnv &inner, detail::WorkerPool &pool,
              accel::HwPoint h, std::uint64_t seed)
        : inner_(inner), pool_(pool), key_(runKey(h, seed))
    {
        req_.hw = std::move(h);
        req_.seed = seed;
        state_.ppa = accel::Ppa::infeasible();
    }

    void
    step(int evals) override
    {
        if (local_) {
            local_->step(evals);
            return;
        }
        req_.ops.push_back(wire::Op{wire::OpKind::Step, evals});
        pendingEvals_ += evals;
    }

    int
    spent() const override
    {
        // Optimistic while ops are queued: a healthy step advances
        // spent by exactly its arg, and a faulting batch resets the
        // mirror to worker truth before the fault surfaces.
        return local_ ? local_->spent() : state_.spent + pendingEvals_;
    }

    accel::Ppa
    bestPpa() const override
    {
        const_cast<RemoteRun *>(this)->flush();
        return local_ ? local_->bestPpa() : state_.ppa;
    }

    const std::vector<double> &
    bestLossHistory() const override
    {
        const_cast<RemoteRun *>(this)->flush();
        return local_ ? local_->bestLossHistory() : state_.hist;
    }

    double
    sensitivity(double alpha) const override
    {
        auto *self = const_cast<RemoteRun *>(this);
        self->flush();
        if (local_)
            return local_->sensitivity(alpha);
        if (self->roundTrip(wire::RequestKind::Sense, alpha)) {
            throwIfFault();
            return state_.sense;
        }
        goLocal(req_.ops.size());
        return local_->sensitivity(alpha);
    }

    double
    chargedSeconds() const override
    {
        const_cast<RemoteRun *>(this)->flush();
        return local_ ? local_->chargedSeconds() : state_.seconds;
    }

    bool
    degradeToAnalytical() override
    {
        flush();
        if (local_)
            return local_->degradeToAnalytical();
        req_.ops.push_back(wire::Op{wire::OpKind::Degrade, 0});
        if (roundTrip(wire::RequestKind::Sync, 0.0)) {
            done_ = req_.ops.size();
            pool_.noteOpsApplied(1);
            throwIfFault();
            return state_.degraded;
        }
        goLocal(req_.ops.size() - 1);
        done_ = req_.ops.size() - 1;
        return local_->degradeToAnalytical();
    }

  private:
    /**
     * Resolve every queued op against a worker. On a healthy reply
     * the whole tail is acked; on an evaluation fault the worker
     * stopped at the faulting op, we keep exactly the applied prefix
     * and re-raise the fault here — the first state read after the
     * queued steps, which in the supervisor is still inside the same
     * try block that would have caught the unbatched throw. On
     * transport exhaustion the run goes local and replays the queue
     * with normal fault propagation. A no-op once the run is local.
     */
    void
    flush()
    {
        std::vector<wire::Op> &ops = req_.ops;
        if (local_ || done_ == ops.size())
            return;
        if (roundTrip(wire::RequestKind::Sync, 0.0)) {
            const std::size_t applied = std::min<std::size_t>(
                state_.applied, ops.size() - done_);
            done_ += applied;
            pool_.noteOpsApplied(applied);
            pendingEvals_ = 0;
            if (state_.status != EvalStatus::Ok) {
                ops.resize(done_);
                throwIfFault();
            }
            return;
        }
        // Circuit breaker: replay the acked prefix swallowing faults,
        // then apply the queued tail with in-process propagation.
        goLocal(done_);
        while (done_ < ops.size()) {
            const wire::Op op = ops[done_];
            ++done_; // a faulted op still joins the applied history
            try {
                apply(*local_, op);
            } catch (...) {
                ops.resize(done_);
                pendingEvals_ = 0;
                throw;
            }
        }
        pendingEvals_ = 0;
    }

    /** One request carrying the whole history; on a state reply the
     *  mirror takes the worker's state. "sense" is non-mutating and
     *  is NOT part of the history. A failure reply (the worker could
     *  not build the run) answers false like an open breaker, and the
     *  caller goes in-process. */
    bool
    roundTrip(wire::RequestKind kind, double alpha)
    {
        req_.kind = kind;
        req_.alpha = alpha;
        req_.done = static_cast<std::uint32_t>(done_);
        wire::Reply reply;
        if (!pool_.call(key_, req_, reply) ||
            reply.kind != wire::ReplyKind::State)
            return false;
        state_ = std::move(reply);
        return true;
    }

    void
    throwIfFault() const
    {
        if (state_.status == EvalStatus::Ok)
            return;
        throw EvalFault(state_.status,
                        state_.message.empty()
                            ? std::string(toString(state_.status))
                            : state_.message);
    }

    /**
     * Circuit breaker fell back to in-process evaluation: rebuild
     * the run locally by replaying the first @p replay ops of the
     * history, swallowing replayed faults (each was already raised
     * once; the deterministic fault streams make the recurrence
     * identical). Mutating callers pass ops.size() - 1 — the tail
     * is the pending op they then apply with normal propagation —
     * while sensitivity() replays the whole history. Permanent: once
     * local, the run never talks to the fleet again.
     */
    void
    goLocal(std::size_t replay) const
    {
        auto run = inner_.createRun(req_.hw, req_.seed);
        for (std::size_t i = 0; i < replay; ++i) {
            try {
                apply(*run, req_.ops[i]);
            } catch (const std::exception &) {
                // Already reported when first applied; recurrence is
                // part of the deterministic replay.
            }
        }
        local_ = std::move(run);
        pool_.noteInprocFallback();
    }

    const CoSearchEnv &inner_;
    detail::WorkerPool &pool_;
    common::Fingerprint key_;
    /** The run's identity (hw, seed) and full op history; kind,
     *  alpha and done are set per round trip. */
    wire::Request req_;
    std::size_t done_ = 0; ///< acked prefix of the ops; the rest is queued
    int pendingEvals_ = 0; ///< optimistic spent delta of the queue
    /** Mirrored state from the last state reply. */
    wire::Reply state_;

    mutable std::unique_ptr<MappingRun> local_;
};

// ---------------------------------------------------------------------------
// Remote worker client
// ---------------------------------------------------------------------------

/** First step of a remote worker's reconnect backoff, in seconds. */
constexpr double kReconnectBaseSeconds = 0.05;

/** Uniform draw in [0, 1) from a mixed state — for backoff jitter. */
double
unitJitter(std::uint64_t z)
{
    return static_cast<double>(mix64(z) >> 11) *
           (1.0 / 9007199254740992.0);
}

} // namespace

int
runFleetWorkerClient(const CoSearchEnv &env, const FleetWorkerOptions &opts)
{
    const common::StackIdentity identity = common::StackIdentity::of(env);

    // Session id: stable for the life of this process so the master
    // can tell "the partitioned worker came back" (epoch > 0, resident
    // runs warm) from "a fresh worker joined" (epoch 0). Seeded from
    // pid + clock; uniqueness, not unpredictability, is what matters.
    double nowSplit = common::monotonicNow();
    std::uint64_t nowBits = 0;
    static_assert(sizeof nowBits == sizeof nowSplit, "u64 time bits");
    std::memcpy(&nowBits, &nowSplit, sizeof nowBits);
    const std::uint64_t session =
        mix64(static_cast<std::uint64_t>(::getpid()) ^ mix64(nowBits));

    // The server outlives channels: resident runs survive reconnects,
    // which is what makes a post-partition resumption warm.
    WorkerServer server(-1, env, opts.cfg);

    std::uint64_t epoch = 0;
    int consecutiveFailures = 0;
    bool everConnected = false;
    for (;;) {
        std::string error;
        bool rejected = false;
        const int fd = net::connectWorker(
            opts.connectAddr, identity, session, epoch,
            opts.connectDeadlineSeconds, &error, &rejected);
        if (fd < 0) {
            if (rejected)
                return 2; // wrong stack identity: retrying is useless
            if (++consecutiveFailures > opts.maxReconnectAttempts)
                return everConnected ? 0 : 1;
            // Jittered exponential backoff: desynchronizes a fleet of
            // workers all reconnecting after the same partition heals,
            // so the master is not hit by a thundering herd.
            const int k = std::min(consecutiveFailures - 1, 6);
            const double cap = std::min(
                kReconnectBaseSeconds * static_cast<double>(1 << k),
                opts.reconnectMaxSeconds);
            const double sleepFor =
                cap * (0.5 + 0.5 * unitJitter(
                                       session ^ static_cast<std::uint64_t>(
                                                     consecutiveFailures)));
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::max(0.001, sleepFor)));
            continue;
        }
        everConnected = true;
        consecutiveFailures = 0;
        server.setFd(fd);
        const ServeExit exit = server.serveLoop();
        ::close(fd);
        if (exit == ServeExit::Bye)
            return 0; // master shut the fleet down cleanly
        // PeerClosed / StreamBroken: the channel died under us —
        // network fault, chaos-proxy sever, or master-side SIGKILL of
        // the conversation. Dial back in under the next epoch; the
        // master replays whatever the wire lost.
        ++epoch;
    }
}

// ---------------------------------------------------------------------------
// FleetEnv
// ---------------------------------------------------------------------------

FleetEnv::FleetEnv(CoSearchEnv &inner, FleetConfig cfg)
    : EnvDecorator(inner),
      pool_(std::make_unique<detail::WorkerPool>(inner, cfg))
{}

FleetEnv::~FleetEnv() = default;

std::unique_ptr<MappingRun>
FleetEnv::createRun(const accel::HwPoint &h, std::uint64_t seed) const
{
    return std::make_unique<RemoteRun>(inner_, *pool_, h, seed);
}

common::TransportStats
FleetEnv::transportStats() const
{
    common::TransportStats stats = inner_.transportStats();
    stats.merge(pool_->stats());
    return stats;
}

std::size_t
FleetEnv::liveWorkers() const
{
    return pool_->liveWorkers();
}

std::vector<std::int64_t>
FleetEnv::workerPids() const
{
    return pool_->pids();
}

int
FleetEnv::listenPort() const
{
    return pool_->listenPort();
}

} // namespace unico::core
