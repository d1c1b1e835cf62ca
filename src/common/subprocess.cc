#include "common/subprocess.hh"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/io.hh"

namespace unico::common {

bool
sendFdMessage(int sock, int fd, std::uint64_t tag)
{
    struct msghdr msg = {};
    struct iovec iov = {};
    iov.iov_base = &tag;
    iov.iov_len = sizeof(tag);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;

    alignas(struct cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))] = {};
    msg.msg_control = ctrl;
    msg.msg_controllen = sizeof(ctrl);
    struct cmsghdr *cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_SOCKET;
    cm->cmsg_type = SCM_RIGHTS;
    cm->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cm), &fd, sizeof(int));

    for (;;) {
        const ssize_t n = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
        if (n == static_cast<ssize_t>(sizeof(tag)))
            return true;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
}

bool
recvFdMessage(int sock, int &fd, std::uint64_t &tag,
              double deadline_seconds)
{
    if (waitReadable(sock, deadline_seconds) != IoStatus::Ok)
        return false;
    struct msghdr msg = {};
    struct iovec iov = {};
    iov.iov_base = &tag;
    iov.iov_len = sizeof(tag);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    alignas(struct cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))] = {};
    msg.msg_control = ctrl;
    msg.msg_controllen = sizeof(ctrl);

    ssize_t n;
    do {
        n = ::recvmsg(sock, &msg, 0);
    } while (n < 0 && errno == EINTR);
    if (n != static_cast<ssize_t>(sizeof(tag)))
        return false;
    const struct cmsghdr *cm = CMSG_FIRSTHDR(&msg);
    if (cm == nullptr || cm->cmsg_level != SOL_SOCKET ||
        cm->cmsg_type != SCM_RIGHTS ||
        cm->cmsg_len != CMSG_LEN(sizeof(int)))
        return false;
    std::memcpy(&fd, CMSG_DATA(cm), sizeof(int));
    setCloexec(fd);
    return true;
}

namespace {

/** Zygote main loop: fork a worker per 'S' command byte. Runs in the
 *  zygote process; never returns. */
[[noreturn]] void
zygoteServe(int control_fd, const std::function<void(int)> &serve)
{
    // Terminal signals target the whole foreground group; the fleet
    // winds down via EOF on its sockets, not via SIGINT races.
    ::signal(SIGINT, SIG_IGN);
    ::signal(SIGTERM, SIG_IGN);
    ::signal(SIGPIPE, SIG_IGN);
    // Kernel auto-reaps dead workers; the zygote never blocks in wait.
    ::signal(SIGCHLD, SIG_IGN);

    for (;;) {
        char cmd = 0;
        const IoStatus st = readFull(control_fd, &cmd, 1);
        if (st != IoStatus::Ok || cmd != 'S')
            _exit(0); // master closed the control socket (or garbage)

        int sv[2];
        if (!makeSocketPair(sv)) {
            if (!sendFdMessage(control_fd, control_fd, 0))
                _exit(0);
            continue;
        }
        const pid_t pid = ::fork();
        if (pid == 0) {
            // Worker: serve requests on its end until EOF.
            ::close(sv[0]);
            ::close(control_fd);
            serve(sv[1]);
            _exit(0);
        }
        ::close(sv[1]);
        if (pid < 0) {
            ::close(sv[0]);
            if (!sendFdMessage(control_fd, control_fd, 0))
                _exit(0);
            continue;
        }
        // tag 0 = spawn failed (the fd is a dummy the master closes).
        if (!sendFdMessage(control_fd, sv[0],
                           static_cast<std::uint64_t>(pid)))
            _exit(0);
        ::close(sv[0]); // master owns the surviving copy
    }
}

} // namespace

WorkerFactory::WorkerFactory(std::function<void(int)> child_serve)
{
    int sv[2];
    if (!makeSocketPair(sv))
        return;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        return;
    }
    if (pid == 0) {
        ::close(sv[0]);
        zygoteServe(sv[1], child_serve);
    }
    ::close(sv[1]);
    controlFd_ = sv[0];
    zygotePid_ = pid;
}

WorkerFactory::~WorkerFactory()
{
    if (controlFd_ >= 0)
        ::close(controlFd_);
    if (zygotePid_ > 0) {
        // The zygote exits on EOF; reap it so no zombie outlives us.
        int status = 0;
        pid_t r;
        do {
            r = ::waitpid(static_cast<pid_t>(zygotePid_), &status, 0);
        } while (r < 0 && errno == EINTR);
    }
}

bool
WorkerFactory::spawn(WorkerHandle &out, double deadline_seconds)
{
    if (controlFd_ < 0)
        return false;
    if (writeFull(controlFd_, "S", 1) != IoStatus::Ok) {
        ::close(controlFd_);
        controlFd_ = -1;
        return false;
    }
    int fd = -1;
    std::uint64_t tag = 0;
    if (!recvFdMessage(controlFd_, fd, tag, deadline_seconds)) {
        // Zygote died or hung: no further spawns are possible.
        ::close(controlFd_);
        controlFd_ = -1;
        return false;
    }
    if (tag == 0) {
        ::close(fd);
        return false;
    }
    out.pid = static_cast<std::int64_t>(tag);
    out.fd = fd;
    return true;
}

} // namespace unico::common
