/**
 * @file
 * Fleet wire records: the payloads of the master/worker evaluation
 * protocol (core/fleet), one fixed-layout binary record per message.
 *
 * Each record rides in one CRC-64 frame (common/frame) and is written
 * straight after the frame header. Integers are little-endian at fixed
 * offsets; doubles travel as their raw IEEE-754 bits, so every value
 * (NaN payloads, -0.0, infinities, subnormals) crosses bit-exactly.
 * The nonce is the first field of every record.
 *
 * Request. Ping and bye end after the kind byte:
 *
 *   offset  size  field
 *        0     8  nonce (u64), echoed by the reply
 *        8     1  kind (u8): 1 sync, 2 sense, 3 ping, 4 bye
 *        9     8  run seed (u64)
 *       17     8  alpha (f64): sensitivity level of a sense, 0 in a sync
 *       25     4  done (u32): ops already acked, at most the op count
 *       29     4  axis count a (u32)
 *       33     4  op count n (u32)
 *       37    8a  hardware point: one value index per axis (u64)
 *   37+8a     8n  op history: kind (u32: 0 step, 1 degrade), arg (i32)
 *
 * Reply. A pong ends after the kind byte; a failure (the worker could
 * not decode the request or build its run; status fatal) carries only
 * its message:
 *
 *   offset  size  field
 *        0     8  nonce (u64) of the request answered
 *        8     1  kind (u8): 1 state, 2 pong, 3 failure
 *   failure:
 *        9     4  message length m (u32)
 *       13     m  message
 *   state:
 *        9     1  status (u8): EvalStatus of the last op applied
 *       10     1  flags (u8): bit 0 best PPA feasible, bit 1 degraded
 *       11     4  applied (u32): pending ops applied by this request
 *       15     4  spent evaluations (i32)
 *       19     8  charged virtual seconds (f64)
 *       27    32  best PPA: latency, power, area, energy (f64 each)
 *       59     8  sensitivity (f64): a sense's answer, 0 in a sync
 *       67     4  message length m (u32)
 *       71     4  history length h (u32)
 *       75     m  message: the fault text, empty when status is ok
 *     75+m    8h  best-loss history (f64 each)
 *
 * The decoders treat the bytes as untrusted: every count is checked
 * against the bytes left before anything is sized by it, and only a
 * record the encoder would write is accepted, so a decoded record
 * re-encodes to exactly its input.
 */

#ifndef UNICO_CORE_FLEET_WIRE_HH
#define UNICO_CORE_FLEET_WIRE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "accel/design_space.hh"
#include "accel/ppa.hh"
#include "common/status.hh"

namespace unico::core::wire {

/** Mutating call recorded in a run's op history. */
enum class OpKind : std::uint32_t {
    Step = 0,    ///< MappingRun::step(arg)
    Degrade = 1, ///< MappingRun::degradeToAnalytical()
};

/** One op of a run's history. */
struct Op
{
    OpKind kind = OpKind::Step;
    std::int32_t arg = 0;

    bool operator==(const Op &other) const = default;
};

enum class RequestKind : std::uint8_t {
    Sync = 1,  ///< apply the pending ops, answer with the run's state
    Sense = 2, ///< sync, then answer sensitivity(alpha) too
    Ping = 3,  ///< liveness probe, answered with a pong
    Bye = 4,   ///< the master is leaving: no reply, shut down
};

/** Master → worker. The body fields matter to sync and sense only. */
struct Request
{
    std::uint64_t nonce = 0;
    RequestKind kind = RequestKind::Ping;
    std::uint64_t seed = 0;
    double alpha = 0.0;
    std::uint32_t done = 0;
    accel::HwPoint hw;
    std::vector<Op> ops;
};

enum class ReplyKind : std::uint8_t {
    State = 1,   ///< answer to a sync or a sense
    Pong = 2,    ///< answer to a ping
    Failure = 3, ///< the request could not be served (status fatal)
};

/** Worker → master. The state fields matter to a state reply only;
 *  a failure reply sets status Fatal and the message. */
struct Reply
{
    std::uint64_t nonce = 0;
    ReplyKind kind = ReplyKind::Pong;
    common::EvalStatus status = common::EvalStatus::Ok;
    bool degraded = false;
    std::uint32_t applied = 0;
    std::int32_t spent = 0;
    double seconds = 0.0;
    accel::Ppa ppa;
    double sense = 0.0;
    std::string message;
    std::vector<double> hist;
};

/** Why a record failed to decode. */
enum class WireError {
    None,
    Truncated,     ///< the bytes end inside a fixed-size field
    UnknownKind,   ///< the kind byte names no record
    CountOverrun,  ///< a count needs more bytes than are left
    BadField,      ///< a field holds a value no encoder writes
    TrailingBytes, ///< bytes left over after the record
};

const char *toString(WireError error);

/** Append @p req / @p reply to @p out. Counts are u32: a frame caps
 *  a payload at 16 MiB long before a count could overflow. */
void encode(const Request &req, std::string &out);
void encode(const Reply &reply, std::string &out);

/** Decode one whole record. On an error @p out is left partly
 *  written, but its nonce is always set: read whenever the bytes hold
 *  one, else 0, so a failure reply can echo it. */
WireError decode(std::string_view in, Request &out);
WireError decode(std::string_view in, Reply &out);

} // namespace unico::core::wire

#endif // UNICO_CORE_FLEET_WIRE_HH
