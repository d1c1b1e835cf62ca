#include "net/chaos_proxy.hh"

#include <chrono>
#include <cstdlib>

#include <sys/socket.h>
#include <unistd.h>

#include "common/frame.hh"
#include "common/rng.hh"
#include "net/socket.hh"

namespace unico::net {

namespace {

using common::mix64;

/** Deterministic uniform [0,1) draw for one (frame, fault) decision. */
double
unitDraw(std::uint64_t seed, std::uint64_t conn, std::uint64_t dir,
         std::uint64_t frame, std::uint64_t salt)
{
    const std::uint64_t h =
        mix64(seed ^ mix64(conn * 0x9e3779b97f4a7c15ULL + dir) ^
              mix64(frame + 1) ^ salt * 0xda942042e4dd58b5ULL);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint32_t
le32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

void
shutdownFd(int fd)
{
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

/** Outcome of pulling one whole raw frame off a stream. */
enum class PumpRead { Ok, Closed, Timeout };

/**
 * Read one complete frame (header + payload, no CRC validation — the
 * endpoints do that) into @p out. @p boundary_wait bounds only the
 * wait for the *first* byte; once a header starts arriving the read
 * runs to completion so the proxy never strands partial bytes.
 */
PumpRead
readRawFrame(int fd, std::string &out, double boundary_wait)
{
    if (boundary_wait > 0.0) {
        const common::IoStatus ready =
            common::waitReadable(fd, boundary_wait);
        if (ready == common::IoStatus::Timeout)
            return PumpRead::Timeout;
        if (ready != common::IoStatus::Ok)
            return PumpRead::Closed;
    }
    unsigned char hdr[common::kFrameHeaderSize];
    if (common::readFullUntil(fd, hdr, sizeof(hdr), 0.0) !=
        common::IoStatus::Ok)
        return PumpRead::Closed;
    const std::uint32_t magic = le32(hdr);
    const std::uint32_t length = le32(hdr + 4);
    if (magic != common::kFrameMagic ||
        length > common::kFrameMaxPayload)
        return PumpRead::Closed; // desynchronized stream; sever it
    out.assign(reinterpret_cast<const char *>(hdr), sizeof(hdr));
    out.resize(sizeof(hdr) + length);
    if (length > 0 &&
        common::readFullUntil(fd, &out[sizeof(hdr)], length, 0.0) !=
            common::IoStatus::Ok)
        return PumpRead::Closed;
    return PumpRead::Ok;
}

bool
parseProb(const std::string &v, double &out)
{
    char *end = nullptr;
    out = std::strtod(v.c_str(), &end);
    return end && *end == '\0' && out >= 0.0 && out <= 1.0;
}

} // namespace

bool
ChaosProfile::parse(const std::string &spec, ChaosProfile &out,
                    std::string *error)
{
    ChaosProfile p;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            if (error)
                *error = "chaos spec item '" + item + "' has no '='";
            return false;
        }
        const std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        std::string extra;
        const std::size_t colon = value.find(':');
        if (colon != std::string::npos) {
            extra = value.substr(colon + 1);
            value = value.substr(0, colon);
        }
        bool ok = true;
        if (key == "seed") {
            char *end = nullptr;
            p.seed = std::strtoull(value.c_str(), &end, 10);
            ok = end && *end == '\0';
        } else if (key == "drop") {
            ok = parseProb(value, p.dropProbability);
        } else if (key == "tear") {
            ok = parseProb(value, p.tearProbability);
        } else if (key == "flip") {
            ok = parseProb(value, p.flipProbability);
        } else if (key == "dup") {
            ok = parseProb(value, p.duplicateProbability);
        } else if (key == "reorder") {
            ok = parseProb(value, p.reorderProbability);
        } else if (key == "delay") {
            ok = parseProb(value, p.delayProbability);
            if (ok && !extra.empty()) {
                char *end = nullptr;
                p.delaySeconds = std::strtod(extra.c_str(), &end);
                ok = end && *end == '\0' && p.delaySeconds >= 0.0;
            }
            extra.clear();
        } else if (key == "partition") {
            char *end = nullptr;
            p.partitionEveryFrames =
                std::strtoull(value.c_str(), &end, 10);
            ok = end && *end == '\0';
            if (ok && !extra.empty()) {
                p.partitionSeconds = std::strtod(extra.c_str(), &end);
                ok = end && *end == '\0' && p.partitionSeconds >= 0.0;
            }
            extra.clear();
        } else {
            if (error)
                *error = "unknown chaos spec key '" + key + "'";
            return false;
        }
        if (!ok || !extra.empty()) {
            if (error)
                *error = "malformed chaos spec value in '" + item + "'";
            return false;
        }
    }
    out = p;
    return true;
}

/** One proxied connection: the client (master) side fd, the upstream
 *  (worker) side fd, and the shared sever latch both pumps honor. */
struct ChaosProxy::Conn
{
    int clientFd = -1;
    int upstreamFd = -1;
    std::uint64_t id = 0;
    std::atomic<bool> severed{false};

    void
    sever()
    {
        if (!severed.exchange(true)) {
            shutdownFd(clientFd);
            shutdownFd(upstreamFd);
        }
    }

    ~Conn()
    {
        closeFd(clientFd);
        closeFd(upstreamFd);
    }
};

ChaosProxy::ChaosProxy(std::string listen_addr,
                       std::string upstream_addr, ChaosProfile profile)
    : listenAddr_(std::move(listen_addr)),
      upstreamAddr_(std::move(upstream_addr)), profile_(profile)
{}

ChaosProxy::~ChaosProxy()
{
    stop();
}

bool
ChaosProxy::start(std::string *error)
{
    listenFd_ = tcpListen(listenAddr_, error);
    if (listenFd_ < 0)
        return false;
    port_ = boundPort(listenFd_);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
ChaosProxy::stop()
{
    if (listenFd_ < 0)
        return;
    stop_.store(true, std::memory_order_release);
    if (acceptThread_.joinable())
        acceptThread_.join();
    severAll();
    std::vector<std::thread> pumps;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pumps.swap(pumpThreads_);
    }
    for (std::thread &t : pumps)
        if (t.joinable())
            t.join();
    {
        std::lock_guard<std::mutex> lock(mu_);
        conns_.clear();
    }
    closeFd(listenFd_);
    listenFd_ = -1;
}

bool
ChaosProxy::inPartition() const
{
    return common::monotonicNow() <
           partitionUntil_.load(std::memory_order_acquire);
}

void
ChaosProxy::triggerPartition()
{
    partitions_.fetch_add(1, std::memory_order_relaxed);
    partitionUntil_.store(common::monotonicNow() +
                              profile_.partitionSeconds,
                          std::memory_order_release);
    severAll();
}

void
ChaosProxy::severAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &conn : conns_)
        conn->sever();
}

void
ChaosProxy::acceptLoop()
{
    while (!stop_.load(std::memory_order_acquire)) {
        common::IoStatus status = common::IoStatus::Ok;
        const int cfd = tcpAccept(listenFd_, 0.2, &status);
        if (cfd < 0) {
            if (status == common::IoStatus::Timeout)
                continue;
            break;
        }
        if (inPartition()) {
            refused_.fetch_add(1, std::memory_order_relaxed);
            closeFd(cfd);
            continue;
        }
        std::string err;
        const int ufd = tcpConnect(upstreamAddr_, 5.0, &err);
        if (ufd < 0) {
            closeFd(cfd);
            continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->clientFd = cfd;
        conn->upstreamFd = ufd;
        connections_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        conn->id = nextConnId_++;
        conns_.push_back(conn);
        pumpThreads_.emplace_back(
            [this, conn] { pump(conn, /*toUpstream=*/true); });
        pumpThreads_.emplace_back(
            [this, conn] { pump(conn, /*toUpstream=*/false); });
    }
}

void
ChaosProxy::pump(std::shared_ptr<Conn> conn, bool toUpstream)
{
    const int src = toUpstream ? conn->clientFd : conn->upstreamFd;
    const int dst = toUpstream ? conn->upstreamFd : conn->clientFd;
    const std::uint64_t dir = toUpstream ? 0 : 1;
    std::uint64_t frame_idx = 0;
    std::string frame;
    std::string next;

    const auto forward = [&](const std::string &bytes) {
        if (common::writeFullUntil(dst, bytes, 0.0) !=
            common::IoStatus::Ok)
            return false;
        framesForwarded_.fetch_add(1, std::memory_order_relaxed);
        return true;
    };

    while (!conn->severed.load(std::memory_order_acquire)) {
        if (readRawFrame(src, frame, 0.0) != PumpRead::Ok)
            break;
        const std::uint64_t idx = frame_idx++;

        // Global partition schedule: the frame that crosses the
        // threshold is lost with the links, like a real partition.
        const std::uint64_t seen =
            framesSeen_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (profile_.partitionEveryFrames > 0 &&
            seen % profile_.partitionEveryFrames == 0) {
            triggerPartition();
            break;
        }

        const auto draw = [&](std::uint64_t salt) {
            return unitDraw(profile_.seed, conn->id, dir, idx, salt);
        };

        if (draw(1) < profile_.dropProbability) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        if (draw(2) < profile_.tearProbability) {
            // Forward header + half the payload, then cut the link.
            const std::size_t keep =
                common::kFrameHeaderSize +
                (frame.size() - common::kFrameHeaderSize) / 2;
            common::writeFullUntil(dst, frame.data(), keep, 0.0);
            torn_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        if (draw(3) < profile_.flipProbability) {
            // Damage one payload bit (or the CRC field of an empty
            // frame) so the receiver's CRC-64 check must catch it.
            const std::size_t len =
                frame.size() - common::kFrameHeaderSize;
            const std::size_t at =
                len > 0 ? common::kFrameHeaderSize + (idx % len) : 8;
            frame[at] = static_cast<char>(frame[at] ^ 0x01);
            flipped_.fetch_add(1, std::memory_order_relaxed);
            if (!forward(frame))
                break;
            continue;
        }
        if (draw(4) < profile_.duplicateProbability) {
            duplicated_.fetch_add(1, std::memory_order_relaxed);
            if (!forward(frame) || !forward(frame))
                break;
            continue;
        }
        if (draw(5) < profile_.reorderProbability) {
            // Swap with the next frame if one shows up quickly;
            // request/response protocols often have none in flight,
            // in which case the frame just goes through.
            const PumpRead peek = readRawFrame(src, next, 0.15);
            if (peek == PumpRead::Ok) {
                ++frame_idx; // the peeked frame consumed an index
                framesSeen_.fetch_add(1, std::memory_order_relaxed);
                reordered_.fetch_add(1, std::memory_order_relaxed);
                if (!forward(next) || !forward(frame))
                    break;
                continue;
            }
            if (peek == PumpRead::Closed) {
                forward(frame);
                break;
            }
        }
        if (draw(6) < profile_.delayProbability) {
            delayed_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::duration<double>(
                profile_.delaySeconds));
        }
        if (!forward(frame))
            break;
    }
    conn->sever();
}

ChaosProxy::Counters
ChaosProxy::counters() const
{
    Counters c;
    c.connections = connections_.load(std::memory_order_relaxed);
    c.framesForwarded =
        framesForwarded_.load(std::memory_order_relaxed);
    c.delayed = delayed_.load(std::memory_order_relaxed);
    c.dropped = dropped_.load(std::memory_order_relaxed);
    c.duplicated = duplicated_.load(std::memory_order_relaxed);
    c.reordered = reordered_.load(std::memory_order_relaxed);
    c.torn = torn_.load(std::memory_order_relaxed);
    c.flipped = flipped_.load(std::memory_order_relaxed);
    c.partitions = partitions_.load(std::memory_order_relaxed);
    c.refusedDuringPartition =
        refused_.load(std::memory_order_relaxed);
    return c;
}

} // namespace unico::net
