#include "common/io.hh"

#include <cerrno>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

namespace unico::common {

const char *
toString(IoStatus status)
{
    switch (status) {
      case IoStatus::Ok: return "ok";
      case IoStatus::Eof: return "eof";
      case IoStatus::Timeout: return "timeout";
      case IoStatus::Error: return "error";
    }
    return "?";
}

double
monotonicNow()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/** One read(2)/recv(2) attempt; callers loop. */
ssize_t
readOnce(int fd, void *buf, std::size_t len)
{
    return ::read(fd, buf, len);
}

/** One poll(2) wait for @p events against an absolute deadline
 *  (<= 0 waits forever); the building block of both public waits. */
IoStatus
waitUntil(int fd, short events, double deadline_monotonic)
{
    const bool bounded = deadline_monotonic > 0.0;
    for (;;) {
        int timeout_ms = -1;
        if (bounded) {
            const double left = deadline_monotonic - monotonicNow();
            if (left <= 0.0)
                return IoStatus::Timeout;
            timeout_ms = static_cast<int>(left * 1000.0) + 1;
        }
        struct pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = events;
        const int r = ::poll(&pfd, 1, timeout_ms);
        if (r > 0)
            return IoStatus::Ok; // ready or HUP; the transfer resolves it
        if (r == 0)
            return IoStatus::Timeout;
        if (errno == EINTR)
            continue;
        return IoStatus::Error;
    }
}

} // namespace

IoStatus
readFull(int fd, void *buf, std::size_t len, std::size_t *got)
{
    // Unbounded read = absolute-deadline read with no deadline.
    return readFullUntil(fd, buf, len, 0.0, got);
}

IoStatus
writeFull(int fd, const void *buf, std::size_t len)
{
    return writeFullUntil(fd, buf, len, 0.0);
}

IoStatus
writeFull(int fd, const std::string &bytes)
{
    return writeFullUntil(fd, bytes.data(), bytes.size(), 0.0);
}

IoStatus
waitReadable(int fd, double deadline_seconds)
{
    return waitUntil(fd, POLLIN,
                     deadline_seconds > 0.0
                         ? monotonicNow() + deadline_seconds
                         : 0.0);
}

IoStatus
waitWritable(int fd, double deadline_seconds)
{
    return waitUntil(fd, POLLOUT,
                     deadline_seconds > 0.0
                         ? monotonicNow() + deadline_seconds
                         : 0.0);
}

IoStatus
readFullUntil(int fd, void *buf, std::size_t len,
              double deadline_monotonic, std::size_t *got)
{
    const bool bounded = deadline_monotonic > 0.0;
    std::size_t off = 0;
    char *p = static_cast<char *>(buf);
    while (off < len) {
        if (bounded) {
            // Wait-first so the deadline binds even on BLOCKING fds
            // (a bare read would sleep past it); on a readable fd the
            // poll returns immediately.
            const IoStatus ready =
                waitUntil(fd, POLLIN, deadline_monotonic);
            if (ready != IoStatus::Ok) {
                if (got)
                    *got = off;
                return ready;
            }
        }
        const ssize_t n = readOnce(fd, p + off, len - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0) {
            if (got)
                *got = off;
            return IoStatus::Eof;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            const IoStatus ready =
                waitUntil(fd, POLLIN, deadline_monotonic);
            if (ready != IoStatus::Ok) {
                if (got)
                    *got = off;
                return ready;
            }
            continue;
        }
        if (got)
            *got = off;
        return IoStatus::Error;
    }
    if (bounded && monotonicNow() > deadline_monotonic && len == 0) {
        // Degenerate zero-length transfer past its deadline still
        // reports Timeout so callers never mistake it for progress.
        return IoStatus::Timeout;
    }
    if (got)
        *got = off;
    return IoStatus::Ok;
}

IoStatus
writeFullUntil(int fd, const void *buf, std::size_t len,
               double deadline_monotonic)
{
    const bool bounded = deadline_monotonic > 0.0;
    std::size_t off = 0;
    const char *p = static_cast<const char *>(buf);
    while (off < len) {
        if (bounded) {
            // Wait-first: bounds the stall on blocking fds too (a
            // fully nonblocking fd would surface it as EAGAIN below,
            // but fleet channels must not depend on fd flags).
            const IoStatus ready =
                waitUntil(fd, POLLOUT, deadline_monotonic);
            if (ready != IoStatus::Ok)
                return ready;
        }
        // Try send(MSG_NOSIGNAL) first so writes to a dead socket peer
        // raise EPIPE instead of SIGPIPE; fall back to write(2) for
        // plain pipes/files (send fails with ENOTSOCK there).
        ssize_t n = ::send(fd, p + off, len - off, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, p + off, len - off);
        if (n >= 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            const IoStatus ready =
                waitUntil(fd, POLLOUT, deadline_monotonic);
            if (ready != IoStatus::Ok)
                return ready;
            continue;
        }
        return errno == EPIPE ? IoStatus::Eof : IoStatus::Error;
    }
    return IoStatus::Ok;
}

IoStatus
writeFullUntil(int fd, const std::string &bytes,
               double deadline_monotonic)
{
    return writeFullUntil(fd, bytes.data(), bytes.size(),
                          deadline_monotonic);
}

bool
setNonblocking(int fd, bool enable)
{
    const int flags = ::fcntl(fd, F_GETFL);
    if (flags < 0)
        return false;
    const int next =
        enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    return ::fcntl(fd, F_SETFL, next) == 0;
}

bool
setCloexec(int fd, bool enable)
{
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags < 0)
        return false;
    const int next =
        enable ? (flags | FD_CLOEXEC) : (flags & ~FD_CLOEXEC);
    return ::fcntl(fd, F_SETFD, next) == 0;
}

bool
makeSocketPair(int fds[2])
{
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return false;
    setCloexec(fds[0]);
    setCloexec(fds[1]);
    return true;
}

} // namespace unico::common
