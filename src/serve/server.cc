#include "serve/server.hh"

#include <cstdlib>
#include <unistd.h>

#include "common/io.hh"
#include "net/socket.hh"
#include "serve/http.hh"

namespace unico::serve {

namespace {

/** Budget for reading one request (header + body). */
constexpr double kRequestTimeoutSeconds = 10.0;
/** Budget for writing one response or one stream chunk. */
constexpr double kWriteTimeoutSeconds = 30.0;

/** Value of ?key= in a raw request target, or empty. */
std::string
queryParam(const std::string &target, const std::string &key)
{
    const std::size_t qmark = target.find('?');
    if (qmark == std::string::npos)
        return {};
    std::string query = target.substr(qmark + 1);
    std::size_t pos = 0;
    while (pos < query.size()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const std::string pair = query.substr(pos, amp - pos);
        const std::size_t eq = pair.find('=');
        if (eq != std::string::npos && pair.substr(0, eq) == key)
            return pair.substr(eq + 1);
        pos = amp + 1;
    }
    return {};
}

/** Parse a decimal job id; false on anything else. */
bool
parseId(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

common::Json
errorBody(const std::string &message)
{
    common::Json doc = common::Json::object();
    doc["error"] = message;
    return doc;
}

} // namespace

JobServer::JobServer(core::JobManager &manager, JobServerConfig cfg)
    : manager_(manager), cfg_(std::move(cfg))
{
}

JobServer::~JobServer()
{
    stop();
}

bool
JobServer::start(std::string *error)
{
    if (listenFd_ >= 0)
        return true;
    listenFd_ = net::tcpListen(cfg_.addr, error);
    if (listenFd_ < 0)
        return false;
    port_ = net::boundPort(listenFd_);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
JobServer::stop()
{
    if (stopping_.exchange(true))
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Streams end once their job is terminal; callers that want a
    // fast stop cancel jobs (manager().shutdown()) before stop().
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        conns.swap(connThreads_);
    }
    for (auto &t : conns)
        t.join();
}

void
JobServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        // Short accept timeout so stop() is honored promptly.
        common::IoStatus status = common::IoStatus::Ok;
        const int fd = net::tcpAccept(listenFd_, 0.25, &status);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lk(connMu_);
        connThreads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
JobServer::handleConnection(int fd)
{
    const double write_deadline =
        common::monotonicNow() + kWriteTimeoutSeconds;
    auto respond = [&](int status, const common::Json &body) {
        common::writeFullUntil(
            fd, makeHttpResponse(status, "application/json",
                                 body.dump() + "\n"),
            write_deadline);
    };

    HttpRequest req;
    const HttpParseStatus parsed = readHttpRequest(
        fd, req, common::monotonicNow() + kRequestTimeoutSeconds);
    if (parsed != HttpParseStatus::Ok) {
        if (parsed == HttpParseStatus::Timeout)
            respond(408, errorBody("request read timed out"));
        else if (parsed == HttpParseStatus::TooLarge)
            respond(413, errorBody("request too large"));
        else if (parsed == HttpParseStatus::Malformed)
            respond(400, errorBody("malformed HTTP request"));
        ::close(fd);
        return;
    }

    const std::vector<std::string> path = req.pathSegments();

    if (req.method == "GET" && path.size() == 1 &&
        path[0] == "healthz") {
        common::Json doc = common::Json::object();
        doc["status"] = "ok";
        doc["max_concurrent"] = manager_.config().maxConcurrent;
        doc["max_queued"] = manager_.config().maxQueued;
        doc["jobs"] = manager_.list().size();
        respond(200, doc);
        ::close(fd);
        return;
    }

    if (path.empty() || path[0] != "jobs") {
        respond(404, errorBody("no such resource"));
        ::close(fd);
        return;
    }

    // POST /jobs — submit.
    if (req.method == "POST" && path.size() == 1) {
        core::JobSpec spec;
        try {
            spec = core::jobSpecFromJson(
                common::Json::parse(req.body));
        } catch (const std::exception &e) {
            respond(400, errorBody(e.what()));
            ::close(fd);
            return;
        }
        const core::SubmitResult sub = manager_.submit(std::move(spec));
        if (!sub.ok()) {
            const int status =
                sub.error == core::SubmitError::QueueFull ? 429
                : sub.error == core::SubmitError::ShuttingDown ? 503
                                                               : 400;
            common::Json doc = errorBody(sub.message);
            doc["code"] = core::toString(sub.error);
            respond(status, doc);
            ::close(fd);
            return;
        }
        common::Json doc = common::Json::object();
        doc["id"] = static_cast<std::int64_t>(sub.id);
        respond(202, doc);
        ::close(fd);
        return;
    }

    // GET /jobs — list.
    if (req.method == "GET" && path.size() == 1) {
        common::Json doc = common::Json::array();
        for (const auto &st : manager_.list())
            doc.push(core::toJson(st));
        respond(200, doc);
        ::close(fd);
        return;
    }

    std::uint64_t id = 0;
    if (path.size() < 2 || !parseId(path[1], id)) {
        respond(404, errorBody("bad job id"));
        ::close(fd);
        return;
    }

    // GET /jobs/N — status.
    if (req.method == "GET" && path.size() == 2) {
        const auto st = manager_.status(id);
        if (!st) {
            respond(404, errorBody("no such job"));
            ::close(fd);
            return;
        }
        respond(200, core::toJson(*st));
        ::close(fd);
        return;
    }

    // GET /jobs/N/events — replayable NDJSON stream.
    if (req.method == "GET" && path.size() == 3 &&
        path[2] == "events") {
        if (!manager_.status(id)) {
            respond(404, errorBody("no such job"));
            ::close(fd);
            return;
        }
        std::size_t from = 0;
        {
            const std::string raw = queryParam(req.target, "from");
            std::uint64_t v = 0;
            if (parseId(raw, v))
                from = static_cast<std::size_t>(v);
        }
        if (common::writeFullUntil(
                fd,
                makeStreamingResponseHead(200, "application/x-ndjson"),
                common::monotonicNow() + kWriteTimeoutSeconds) !=
            common::IoStatus::Ok) {
            ::close(fd);
            return;
        }
        for (;;) {
            // Blocks until new events exist or the job is terminal;
            // empty means the log is exhausted and the job is done.
            const std::vector<core::ProgressEvent> events =
                manager_.eventsSince(id, from);
            if (events.empty())
                break;
            std::string lines;
            for (const auto &ev : events)
                lines += core::toJson(ev).dump() + "\n";
            from += events.size();
            if (common::writeFullUntil(
                    fd, lines,
                    common::monotonicNow() +
                        kWriteTimeoutSeconds) !=
                common::IoStatus::Ok)
                break; // client went away; the job is unaffected
        }
        ::close(fd);
        return;
    }

    // POST /jobs/N/{cancel,pause,resume}.
    if (req.method == "POST" && path.size() == 3) {
        bool ok = false;
        if (path[2] == "cancel")
            ok = manager_.cancel(id);
        else if (path[2] == "pause")
            ok = manager_.pause(id);
        else if (path[2] == "resume")
            ok = manager_.resume(id);
        else {
            respond(404, errorBody("no such action"));
            ::close(fd);
            return;
        }
        if (!ok) {
            respond(409, errorBody("job unknown or already terminal"));
            ::close(fd);
            return;
        }
        common::Json doc = common::Json::object();
        doc["ok"] = true;
        respond(200, doc);
        ::close(fd);
        return;
    }

    respond(405, errorBody("unsupported method for resource"));
    ::close(fd);
}

} // namespace unico::serve
