#include "common/frame.hh"

#include <cstring>

#include "common/crc64.hh"

namespace unico::common {

const char *
toString(FrameStatus status)
{
    switch (status) {
      case FrameStatus::Ok: return "ok";
      case FrameStatus::Eof: return "eof";
      case FrameStatus::Torn: return "torn";
      case FrameStatus::Corrupt: return "corrupt";
      case FrameStatus::Timeout: return "timeout";
      case FrameStatus::Error: return "error";
    }
    return "?";
}

namespace {

/** Store @p v at @p p as little-endian bytes (explicit,
 *  host-agnostic). */
void
putU32(char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** Validate a complete header; returns Ok or Corrupt. */
FrameStatus
checkHeader(const unsigned char *hdr, std::size_t max_payload,
            std::size_t &length, std::uint64_t &crc)
{
    if (getU32(hdr) != kFrameMagic)
        return FrameStatus::Corrupt;
    length = getU32(hdr + 4);
    if (length > max_payload)
        return FrameStatus::Corrupt;
    crc = getU64(hdr + 8);
    return FrameStatus::Ok;
}

} // namespace

std::string
encodeFrame(const std::string &payload)
{
    std::string out;
    out.reserve(kFrameHeaderSize + payload.size());
    beginFrame(out);
    out += payload;
    sealFrame(out);
    return out;
}

void
beginFrame(std::string &frame)
{
    frame.assign(kFrameHeaderSize, '\0');
}

void
sealFrame(std::string &frame)
{
    char *header = frame.data();
    const std::size_t length = frame.size() - kFrameHeaderSize;
    putU32(header, kFrameMagic);
    putU32(header + 4, static_cast<std::uint32_t>(length));
    putU64(header + 8, crc64(header + kFrameHeaderSize, length));
}

FrameStatus
decodeFrame(const std::string &bytes, std::size_t &offset,
            std::string &payload, std::size_t max_payload)
{
    const std::size_t avail = bytes.size() - offset;
    if (avail == 0)
        return FrameStatus::Eof;
    if (avail < kFrameHeaderSize)
        return FrameStatus::Torn;
    const auto *hdr =
        reinterpret_cast<const unsigned char *>(bytes.data() + offset);
    std::size_t length = 0;
    std::uint64_t want_crc = 0;
    if (checkHeader(hdr, max_payload, length, want_crc) !=
        FrameStatus::Ok)
        return FrameStatus::Corrupt;
    if (avail < kFrameHeaderSize + length)
        return FrameStatus::Torn;
    const char *body = bytes.data() + offset + kFrameHeaderSize;
    if (crc64(body, length) != want_crc)
        return FrameStatus::Corrupt;
    payload.assign(body, length);
    offset += kFrameHeaderSize + length;
    return FrameStatus::Ok;
}

FrameStatus
readFrame(int fd, std::string &payload, double deadline_seconds,
          std::size_t max_payload)
{
    // Convert to ONE absolute deadline up front: header and payload
    // reads share the budget, so a peer dribbling bytes cannot reset
    // the clock between transfers (the slow-loris hole).
    return readFrameUntil(fd, payload,
                          deadline_seconds > 0.0
                              ? monotonicNow() + deadline_seconds
                              : 0.0,
                          max_payload);
}

FrameStatus
readFrameUntil(int fd, std::string &payload, double deadline_monotonic,
               std::size_t max_payload)
{
    unsigned char hdr[kFrameHeaderSize];
    std::size_t got = 0;
    IoStatus st =
        readFullUntil(fd, hdr, sizeof(hdr), deadline_monotonic, &got);
    if (st == IoStatus::Eof)
        // EOF on a frame boundary is how a peer says goodbye; EOF
        // with header bytes already consumed is a torn message.
        return got == 0 ? FrameStatus::Eof : FrameStatus::Torn;
    if (st == IoStatus::Timeout)
        return FrameStatus::Timeout;
    if (st != IoStatus::Ok)
        return FrameStatus::Error;

    std::size_t length = 0;
    std::uint64_t want_crc = 0;
    if (checkHeader(hdr, max_payload, length, want_crc) !=
        FrameStatus::Ok)
        return FrameStatus::Corrupt;

    payload.resize(length);
    if (length > 0) {
        st = readFullUntil(fd, payload.data(), length,
                           deadline_monotonic, &got);
        if (st == IoStatus::Eof)
            return FrameStatus::Torn; // died mid-payload
        if (st == IoStatus::Timeout)
            return FrameStatus::Timeout;
        if (st != IoStatus::Ok)
            return FrameStatus::Error;
    }
    if (crc64(payload.data(), payload.size()) != want_crc)
        return FrameStatus::Corrupt;
    return FrameStatus::Ok;
}

IoStatus
writeFrame(int fd, const std::string &payload)
{
    return writeFull(fd, encodeFrame(payload));
}

IoStatus
writeFrameUntil(int fd, const std::string &payload,
                double deadline_monotonic)
{
    return writeFullUntil(fd, encodeFrame(payload),
                          deadline_monotonic);
}

} // namespace unico::common
