/**
 * @file
 * Tests for the framed message transport and the EINTR-safe I/O
 * helpers underneath it: the CRC-64/XZ check value and the sliced
 * CRC against a bytewise reference, encode/decode round-trips, exhaustive
 * torn-frame coverage (truncation at every byte boundary), exhaustive
 * corruption coverage (every single-bit flip is rejected by the
 * CRC-64 / header checks), multi-frame stream decoding, and the
 * fd-level reader's classification of live-stream failures (clean
 * EOF vs. torn vs. corrupt vs. timeout).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/crc64.hh"
#include "common/frame.hh"
#include "common/io.hh"
#include "common/rng.hh"
#include "common/subprocess.hh"

using namespace unico;
using common::FrameStatus;
using common::IoStatus;
using common::kFrameHeaderSize;

namespace {

std::string
samplePayload()
{
    return R"({"op":"step","ops":[[0,4]],"seed":"0x2a"})";
}

/** The textbook bitwise-table CRC-64/XZ, one byte per step. */
std::uint64_t
bytewiseCrc64(const unsigned char *data, std::size_t len)
{
    static const std::array<std::uint64_t, 256> table = [] {
        std::array<std::uint64_t, 256> t{};
        for (std::uint64_t i = 0; i < 256; ++i) {
            std::uint64_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1) ? 0xC96C5795D7870F42ULL : 0);
            t[i] = crc;
        }
        return t;
    }();
    std::uint64_t crc = ~std::uint64_t{0};
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

} // namespace

TEST(Crc64, MatchesTheXzCheckValue)
{
    EXPECT_EQ(common::crc64(std::string("123456789")),
              0x995DC9BBDF1939FAULL);
}

TEST(Crc64, EmptyInputIsZero)
{
    EXPECT_EQ(common::crc64(std::string()), 0u);
    EXPECT_EQ(common::crc64(nullptr, 0), 0u);
}

TEST(Crc64, ChainsAcrossSplits)
{
    const std::string text = samplePayload() + std::string(37, 'q');
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        const std::string a = text.substr(0, cut);
        const std::string b = text.substr(cut);
        EXPECT_EQ(common::crc64(b, common::crc64(a)), common::crc64(text))
            << "cut at " << cut;
    }
}

TEST(Crc64, SlicedMatchesBytewiseAtEveryLengthAndAlignment)
{
    common::Rng rng(64);
    std::vector<unsigned char> buf(1024 + 8);
    for (auto &byte : buf)
        byte = static_cast<unsigned char>(rng.next());
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 1024; ++len)
            ASSERT_EQ(common::crc64(buf.data() + offset, len),
                      bytewiseCrc64(buf.data() + offset, len))
                << "offset " << offset << ", length " << len;
}

TEST(Frame, RoundTripsPayloads)
{
    for (const std::string &payload :
         {std::string(), std::string("x"), samplePayload(),
          std::string(100000, 'z')}) {
        const std::string frame = common::encodeFrame(payload);
        ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
        std::size_t offset = 0;
        std::string out;
        EXPECT_EQ(common::decodeFrame(frame, offset, out),
                  FrameStatus::Ok);
        EXPECT_EQ(out, payload);
        EXPECT_EQ(offset, frame.size());
    }
}

TEST(Frame, EmptyBufferIsCleanEof)
{
    std::size_t offset = 0;
    std::string out;
    EXPECT_EQ(common::decodeFrame(std::string(), offset, out),
              FrameStatus::Eof);
    EXPECT_EQ(offset, 0u);
}

TEST(Frame, TruncationAtEveryBoundaryIsTorn)
{
    const std::string frame = common::encodeFrame(samplePayload());
    // Every proper prefix — mid-magic, mid-length, mid-CRC, and every
    // payload byte — must classify as Torn, never Ok, never Corrupt
    // (a short buffer is not evidence of damage), and must leave the
    // offset untouched so a stream reader can wait for more bytes.
    for (std::size_t len = 1; len < frame.size(); ++len) {
        std::size_t offset = 0;
        std::string out;
        EXPECT_EQ(common::decodeFrame(frame.substr(0, len), offset, out),
                  FrameStatus::Torn)
            << "prefix length " << len;
        EXPECT_EQ(offset, 0u) << "prefix length " << len;
    }
}

TEST(Frame, EveryBitFlipIsRejected)
{
    const std::string frame = common::encodeFrame(samplePayload());
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string damaged = frame;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            std::size_t offset = 0;
            std::string out;
            const FrameStatus st =
                common::decodeFrame(damaged, offset, out);
            // A flip in the length field can make the frame claim
            // more bytes than the buffer holds — indistinguishable
            // from a short buffer, so Torn is acceptable there; Ok
            // never is (CRC-64 catches all single-bit errors).
            EXPECT_TRUE(st == FrameStatus::Corrupt ||
                        st == FrameStatus::Torn)
                << "byte " << byte << " bit " << bit << " -> "
                << common::toString(st);
            EXPECT_EQ(offset, 0u);
        }
    }
}

TEST(Frame, TruncatedAndCorruptPayloadBytes)
{
    // Combined damage at the payload boundary: truncate, then flip
    // the last surviving byte. Still never Ok.
    const std::string frame = common::encodeFrame(samplePayload());
    for (std::size_t len = kFrameHeaderSize + 1; len < frame.size();
         ++len) {
        std::string damaged = frame.substr(0, len);
        damaged[len - 1] = static_cast<char>(damaged[len - 1] ^ 0x80);
        std::size_t offset = 0;
        std::string out;
        const FrameStatus st = common::decodeFrame(damaged, offset, out);
        EXPECT_TRUE(st == FrameStatus::Torn || st == FrameStatus::Corrupt)
            << "len " << len;
    }
}

TEST(Frame, OversizedLengthIsCorrupt)
{
    const std::string frame = common::encodeFrame("abc");
    std::size_t offset = 0;
    std::string out;
    // Tiny max_payload: the declared length exceeds it -> Corrupt
    // (refuse to allocate), not Torn.
    EXPECT_EQ(common::decodeFrame(frame, offset, out, 2),
              FrameStatus::Corrupt);
    EXPECT_EQ(offset, 0u);
}

TEST(Frame, DecodesConsecutiveFramesFromOneBuffer)
{
    const std::vector<std::string> payloads = {"", "alpha",
                                               samplePayload()};
    std::string stream;
    for (const auto &p : payloads)
        stream += common::encodeFrame(p);
    std::size_t offset = 0;
    for (const auto &expected : payloads) {
        std::string out;
        ASSERT_EQ(common::decodeFrame(stream, offset, out),
                  FrameStatus::Ok);
        EXPECT_EQ(out, expected);
    }
    std::string out;
    EXPECT_EQ(common::decodeFrame(stream, offset, out), FrameStatus::Eof);
}

TEST(Frame, DamagedFirstFrameDoesNotConsumeTheStream)
{
    std::string stream = common::encodeFrame("first");
    stream[kFrameHeaderSize] ^= 0x01; // flip payload bit of frame 1
    stream += common::encodeFrame("second");
    std::size_t offset = 0;
    std::string out;
    // The decoder reports Corrupt and leaves the offset for the
    // caller's policy (the fleet kills the conversation; a lenient
    // reader could resync). It must NOT silently return frame 2.
    EXPECT_EQ(common::decodeFrame(stream, offset, out),
              FrameStatus::Corrupt);
    EXPECT_EQ(offset, 0u);
}

namespace {

struct PipePair
{
    int fds[2] = {-1, -1};

    PipePair() { EXPECT_TRUE(common::makeSocketPair(fds)); }

    ~PipePair()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        if (fds[1] >= 0)
            ::close(fds[1]);
    }

    void
    closeWriter()
    {
        ::close(fds[1]);
        fds[1] = -1;
    }
};

} // namespace

TEST(FrameFd, ReadsFrameSplitAcrossWrites)
{
    PipePair p;
    const std::string payload = samplePayload();
    const std::string frame = common::encodeFrame(payload);
    // Deliver the frame in two halves from another thread; the
    // reader must assemble it across short reads.
    std::thread writer([&] {
        const std::size_t half = frame.size() / 2;
        ASSERT_EQ(common::writeFull(p.fds[1], frame.data(), half),
                  IoStatus::Ok);
        ASSERT_EQ(common::writeFull(p.fds[1], frame.data() + half,
                                    frame.size() - half),
                  IoStatus::Ok);
    });
    std::string out;
    EXPECT_EQ(common::readFrame(p.fds[0], out, 10.0), FrameStatus::Ok);
    EXPECT_EQ(out, payload);
    writer.join();
}

TEST(FrameFd, EofAtBoundaryIsCleanMidFrameIsTorn)
{
    {
        PipePair p;
        p.closeWriter();
        std::string out;
        EXPECT_EQ(common::readFrame(p.fds[0], out, 1.0),
                  FrameStatus::Eof);
    }
    const std::string frame = common::encodeFrame(samplePayload());
    for (const std::size_t len :
         {std::size_t{3}, kFrameHeaderSize - 1, kFrameHeaderSize,
          kFrameHeaderSize + 4, frame.size() - 1}) {
        PipePair p;
        ASSERT_EQ(common::writeFull(p.fds[1], frame.data(), len),
                  IoStatus::Ok);
        p.closeWriter();
        std::string out;
        EXPECT_EQ(common::readFrame(p.fds[0], out, 1.0),
                  FrameStatus::Torn)
            << "bytes delivered before close: " << len;
    }
}

TEST(FrameFd, CorruptFrameOnLiveStream)
{
    PipePair p;
    std::string frame = common::encodeFrame(samplePayload());
    frame[kFrameHeaderSize + 2] ^= 0x10;
    ASSERT_EQ(common::writeFull(p.fds[1], frame), IoStatus::Ok);
    std::string out;
    EXPECT_EQ(common::readFrame(p.fds[0], out, 1.0),
              FrameStatus::Corrupt);
}

TEST(FrameFd, DeadlineExpiryIsTimeout)
{
    PipePair p;
    const std::string frame = common::encodeFrame(samplePayload());
    // Only the header arrives; the payload never does.
    ASSERT_EQ(
        common::writeFull(p.fds[1], frame.data(), kFrameHeaderSize),
        IoStatus::Ok);
    std::string out;
    EXPECT_EQ(common::readFrame(p.fds[0], out, 0.05),
              FrameStatus::Timeout);
}

TEST(FrameFd, WriteToClosedPeerReportsEof)
{
    PipePair p;
    ::close(p.fds[0]);
    p.fds[0] = -1;
    // Must not die on SIGPIPE; the fleet classifies this as a dead
    // worker and respawns.
    const IoStatus st =
        common::writeFrame(p.fds[1], std::string(1 << 16, 'q'));
    EXPECT_TRUE(st == IoStatus::Eof || st == IoStatus::Error);
}

TEST(Io, ReadFullReportsPartialProgressOnEof)
{
    PipePair p;
    ASSERT_EQ(common::writeFull(p.fds[1], "abc", 3), IoStatus::Ok);
    p.closeWriter();
    char buf[8] = {};
    std::size_t got = 0;
    EXPECT_EQ(common::readFull(p.fds[0], buf, sizeof(buf), &got),
              IoStatus::Eof);
    EXPECT_EQ(got, 3u);
    EXPECT_EQ(std::string(buf, 3), "abc");
}

TEST(Io, SocketPairIsCloexec)
{
    PipePair p;
    for (int i = 0; i < 2; ++i) {
        const int flags = ::fcntl(p.fds[i], F_GETFD);
        ASSERT_GE(flags, 0);
        EXPECT_TRUE(flags & FD_CLOEXEC) << "fd index " << i;
    }
    EXPECT_TRUE(common::setCloexec(p.fds[0], false));
    EXPECT_FALSE(::fcntl(p.fds[0], F_GETFD) & FD_CLOEXEC);
}

TEST(Subprocess, FdMessageRoundTrip)
{
    PipePair control;
    PipePair payload;
    ASSERT_TRUE(
        common::sendFdMessage(control.fds[0], payload.fds[0], 4242));
    int fd = -1;
    std::uint64_t tag = 0;
    ASSERT_TRUE(common::recvFdMessage(control.fds[1], fd, tag, 5.0));
    EXPECT_EQ(tag, 4242u);
    ASSERT_GE(fd, 0);
    // The received descriptor is a live duplicate: bytes written to
    // the peer end must arrive through it.
    ASSERT_EQ(common::writeFull(payload.fds[1], "ping", 4),
              IoStatus::Ok);
    char buf[4] = {};
    EXPECT_EQ(common::readFull(fd, buf, 4), IoStatus::Ok);
    EXPECT_EQ(std::string(buf, 4), "ping");
    ::close(fd);
}
