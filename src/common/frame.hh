/**
 * @file
 * Length + CRC-64 framed message transport.
 *
 * The master/worker evaluation fleet exchanges request/response
 * payloads over byte streams (socketpairs today, TCP later). A frame
 * makes every message self-delimiting and self-checking, so the two
 * stream failure modes that matter — a *torn* message (peer died
 * mid-write, short read) and a *corrupt* message (bit damage, or a
 * desynchronized stream after a partial read) — are detected at the
 * transport layer and classified before any payload byte is trusted.
 *
 * Wire format, fixed little-endian so the protocol stays
 * host-agnostic for the multi-host step:
 *
 *   offset  size  field
 *        0     4  magic "UFR1"
 *        4     4  payload length (bytes, u32 LE)
 *        8     8  CRC-64/XZ of the payload (u64 LE)
 *       16     n  payload bytes
 */

#ifndef UNICO_COMMON_FRAME_HH
#define UNICO_COMMON_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/io.hh"

namespace unico::common {

/** Outcome of reading one frame from a stream or buffer. */
enum class FrameStatus {
    Ok,      ///< full frame received, CRC verified
    Eof,     ///< clean close exactly on a frame boundary
    Torn,    ///< stream ended mid-header or mid-payload
    Corrupt, ///< bad magic, insane length, or CRC mismatch
    Timeout, ///< deadline expired before the frame completed
    Error,   ///< I/O error (errno is set)
};

/** Human-readable status name. */
const char *toString(FrameStatus status);

/** Fixed header size in bytes. */
inline constexpr std::size_t kFrameHeaderSize = 16;

/** Frame magic ("UFR1", little-endian). */
inline constexpr std::uint32_t kFrameMagic = 0x31524655u;

/** Default sanity cap on payload size (16 MiB). A corrupted length
 *  field must not make the receiver allocate gigabytes. */
inline constexpr std::size_t kFrameMaxPayload = 16u << 20;

/** Serialize @p payload into one wire frame. */
std::string encodeFrame(const std::string &payload);

/** Start a frame in @p frame: clear it and reserve the header, so a
 *  message can be encoded straight after it. */
void beginFrame(std::string &frame);

/** Fill in the header of a frame begun with beginFrame(); every byte
 *  after the header is the payload. */
void sealFrame(std::string &frame);

/**
 * Decode one frame from @p bytes starting at @p offset.
 *
 * On Ok, @p payload receives the message and @p offset advances past
 * the frame. On Torn (buffer ends mid-frame) and Corrupt, @p offset
 * is left unchanged. Eof means @p offset was already at the end.
 * This buffer-level decoder is the unit-testable core; the fd reader
 * below applies the same classification to live streams.
 */
FrameStatus decodeFrame(const std::string &bytes, std::size_t &offset,
                        std::string &payload,
                        std::size_t max_payload = kFrameMaxPayload);

/**
 * Read one complete frame from @p fd, EINTR-safe, bounded by ONE
 * @p deadline_seconds budget across the whole frame — header and
 * payload share the same clock, so a slow-loris peer dribbling one
 * byte per wait cannot stretch a frame past the deadline (<= 0 waits
 * forever). EOF before the first header byte is a clean Eof; EOF
 * anywhere inside a frame is Torn.
 */
FrameStatus readFrame(int fd, std::string &payload,
                      double deadline_seconds = 0.0,
                      std::size_t max_payload = kFrameMaxPayload);

/**
 * readFrame against an *absolute* monotonicNow()-based deadline
 * (<= 0 waits forever), so a request round-trip can hand the frame
 * read whatever budget remains after the write.
 */
FrameStatus readFrameUntil(int fd, std::string &payload,
                           double deadline_monotonic,
                           std::size_t max_payload = kFrameMaxPayload);

/** Write one frame; Eof reports a dead peer (EPIPE). */
IoStatus writeFrame(int fd, const std::string &payload);

/** writeFrame against an absolute monotonicNow()-based deadline
 *  (<= 0 waits forever); Timeout means the peer stopped draining. */
IoStatus writeFrameUntil(int fd, const std::string &payload,
                         double deadline_monotonic);

} // namespace unico::common

#endif // UNICO_COMMON_FRAME_HH
