#include "net/tcp_transport.hh"

#include <chrono>

#include <unistd.h>

#include "common/frame.hh"
#include "common/json.hh"
#include "net/socket.hh"

namespace unico::net {

namespace {

/** Handshake frames must complete quickly; a peer that dials in and
 *  then stalls must not wedge the accept loop. */
constexpr double kHandshakeDeadlineSeconds = 5.0;

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

} // namespace

TcpFleetListener::TcpFleetListener(std::string listen_addr,
                                   common::StackIdentity identity)
    : addr_(std::move(listen_addr)), identity_(std::move(identity))
{}

TcpFleetListener::~TcpFleetListener()
{
    stop();
}

bool
TcpFleetListener::start(std::string *error)
{
    listenFd_ = tcpListen(addr_, error);
    if (listenFd_ < 0)
        return false;
    port_ = boundPort(listenFd_);
    thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
TcpFleetListener::stop()
{
    if (listenFd_ < 0)
        return;
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
    closeFd(listenFd_);
    listenFd_ = -1;
    std::lock_guard<std::mutex> lock(mu_);
    for (const TcpChannel &ch : ready_)
        closeFd(ch.fd);
    ready_.clear();
}

void
TcpFleetListener::acceptLoop()
{
    while (!stop_.load(std::memory_order_acquire)) {
        // Short accept timeout so the stop flag is noticed promptly.
        common::IoStatus status = common::IoStatus::Ok;
        const int fd = tcpAccept(listenFd_, 0.2, &status);
        if (fd < 0) {
            if (status == common::IoStatus::Timeout)
                continue;
            break; // listener fd is broken; nothing more to accept
        }
        TcpChannel ch;
        if (!handshake(fd, ch)) {
            closeFd(fd);
            continue;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ready_.push_back(ch);
        }
        cv_.notify_one();
    }
}

bool
TcpFleetListener::handshake(int fd, TcpChannel &out)
{
    const double deadline =
        common::monotonicNow() + kHandshakeDeadlineSeconds;
    std::string payload;
    if (common::readFrameUntil(fd, payload, deadline) !=
        common::FrameStatus::Ok)
        return false;

    std::string reject;
    common::Json hello;
    try {
        hello = common::Json::parse(payload);
        if (!hello.isObject() || !hello.has("op") ||
            hello.at("op").asString() != "hello") {
            reject = "expected hello";
        } else if (!hello.has("proto") ||
                   static_cast<std::uint64_t>(
                       hello.at("proto").asInt()) != kFleetProtocol) {
            reject = "protocol mismatch";
        } else {
            const auto field = [&](const char *key) {
                return hello.has(key) ? hello.at(key).asString()
                                      : std::string();
            };
            const common::StackIdentity worker{
                field("backend"), field("scenario"), field("digest")};
            switch (identity_.mismatch(worker)) {
              case common::StackIdentity::Field::Backend:
                reject = "backend mismatch: master=" + identity_.backend +
                         " worker=" + worker.backend;
                break;
              case common::StackIdentity::Field::Scenario:
                reject = "scenario mismatch: master=" +
                         identity_.scenario + " worker=" + worker.scenario;
                break;
              case common::StackIdentity::Field::Workload:
                reject = "workload digest mismatch";
                break;
              case common::StackIdentity::Field::None:
                break;
            }
        }
    } catch (const std::exception &e) {
        reject = std::string("malformed hello: ") + e.what();
    }

    if (!reject.empty()) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        common::Json msg = common::Json::object();
        msg["op"] = "reject";
        msg["message"] = reject;
        common::writeFrameUntil(fd, msg.dump(), deadline);
        return false;
    }

    out.fd = fd;
    out.session = hello.has("session")
                      ? common::parseHexU64(hello.at("session").asString())
                      : 0;
    out.epoch = hello.has("epoch")
                    ? static_cast<std::uint64_t>(
                          hello.at("epoch").asInt())
                    : 0;

    common::Json welcome = common::Json::object();
    welcome["op"] = "welcome";
    welcome["proto"] = static_cast<std::int64_t>(kFleetProtocol);
    return common::writeFrameUntil(fd, welcome.dump(), deadline) ==
           common::IoStatus::Ok;
}

bool
TcpFleetListener::awaitChannel(double deadline_seconds, TcpChannel &out)
{
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [this] { return !ready_.empty(); };
    if (deadline_seconds > 0.0) {
        cv_.wait_for(lock,
                     std::chrono::duration<double>(deadline_seconds),
                     ready);
    }
    if (ready_.empty())
        return false;
    out = ready_.front();
    ready_.pop_front();
    return true;
}

int
connectWorker(const std::string &addr,
              const common::StackIdentity &identity,
              std::uint64_t session, std::uint64_t epoch,
              double deadline_seconds, std::string *error, bool *rejected)
{
    if (rejected)
        *rejected = false;
    const int fd = tcpConnect(addr, deadline_seconds, error);
    if (fd < 0)
        return -1;

    const double deadline =
        common::monotonicNow() +
        (deadline_seconds > 0.0 ? deadline_seconds
                                : kHandshakeDeadlineSeconds);
    common::Json hello = common::Json::object();
    hello["op"] = "hello";
    hello["proto"] = static_cast<std::int64_t>(kFleetProtocol);
    hello["backend"] = identity.backend;
    hello["scenario"] = identity.scenario;
    hello["digest"] = identity.workloadDigest;
    hello["session"] = common::hexU64(session);
    hello["epoch"] = static_cast<std::int64_t>(epoch);
    if (common::writeFrameUntil(fd, hello.dump(), deadline) !=
        common::IoStatus::Ok) {
        if (error)
            *error = "handshake write failed";
        closeFd(fd);
        return -1;
    }

    std::string payload;
    if (common::readFrameUntil(fd, payload, deadline) !=
        common::FrameStatus::Ok) {
        if (error)
            *error = "handshake read failed";
        closeFd(fd);
        return -1;
    }
    try {
        const common::Json reply = common::Json::parse(payload);
        const std::string op =
            reply.has("op") ? reply.at("op").asString() : std::string();
        if (op == "welcome")
            return fd;
        if (rejected)
            *rejected = true;
        if (error)
            *error = reply.has("message")
                         ? reply.at("message").asString()
                         : "handshake rejected";
    } catch (const std::exception &e) {
        if (error)
            *error = std::string("malformed welcome: ") + e.what();
    }
    closeFd(fd);
    return -1;
}

} // namespace unico::net
