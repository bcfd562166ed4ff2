#include "serve/daemon.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "obs/metrics.hh"
#include "serve/socket.hh"
#include "support/bytes.hh"
#include "support/logging.hh"

namespace branchlab::serve
{

namespace
{

obs::Counter &
rejectsCounter()
{
    static obs::Counter &rejects =
        obs::Registry::global().counter("serve.rejects");
    return rejects;
}

/** Reader poll period; bounds how long drain waits on idle readers. */
constexpr int kPollMs = 50;

enum class FrameStatus
{
    Frame,
    Timeout,
    Eof,
    Oversized,
    Failed,
};

/** Wait up to kPollMs for a frame, then read it whole. Blocking once
 *  the header starts arriving (bounded by the socket's receive
 *  timeout), so a mid-frame disconnect reads as Failed, never as a
 *  short frame. */
FrameStatus
readFrame(int fd, std::string &payload)
{
    pollfd entry{};
    entry.fd = fd;
    entry.events = POLLIN;
    const int ready = ::poll(&entry, 1, kPollMs);
    if (ready == 0)
        return FrameStatus::Timeout;
    if (ready < 0)
        return errno == EINTR ? FrameStatus::Timeout
                              : FrameStatus::Failed;

    std::uint8_t header[4];
    switch (readExact(fd, header, sizeof header)) {
      case ReadExact::Eof:
        return FrameStatus::Eof;
      case ReadExact::Failed:
        return FrameStatus::Failed;
      case ReadExact::Ok:
        break;
    }
    const std::uint32_t length = loadU32(header);
    if (length > kMaxFrameBytes)
        return FrameStatus::Oversized;
    payload.resize(length);
    if (length > 0 &&
        readExact(fd, payload.data(), length) != ReadExact::Ok)
        return FrameStatus::Failed;
    return FrameStatus::Frame;
}

/** Bound blocking reads (a client that sends half a frame and stalls
 *  holds its reader for at most this long). */
void
setReceiveTimeout(int fd)
{
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof timeout);
}

} // namespace

/** One accepted socket. Workers write responses under writeMutex;
 *  the reader closes the fd only after the last admitted request has
 *  responded (inFlight drains to zero). */
struct Daemon::Connection
{
    int fd = -1;
    std::mutex writeMutex;
    std::mutex flightMutex;
    std::condition_variable flightCv;
    std::size_t inFlight = 0;

    void
    beginRequest()
    {
        std::lock_guard<std::mutex> lock(flightMutex);
        ++inFlight;
    }

    void
    endRequest()
    {
        {
            std::lock_guard<std::mutex> lock(flightMutex);
            --inFlight;
        }
        flightCv.notify_all();
    }

    void
    waitQuiet()
    {
        std::unique_lock<std::mutex> lock(flightMutex);
        flightCv.wait(lock, [this] { return inFlight == 0; });
    }
};

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), service_(config_.service),
      pool_(resolveJobs(config_.jobs), "serve")
{}

Daemon::~Daemon()
{
    if (started_ && !stopped_) {
        requestDrain();
        waitStopped();
    }
}

void
Daemon::start()
{
    blab_assert(!started_, "daemon already started");

    const SocketAddress where = splitAddress(config_.listen);
    const std::string host =
        where.host.empty() || where.host == "*" ? "0.0.0.0" : where.host;
    // Closed again if anything below throws; a started daemon owns
    // it until waitStopped().
    Socket listener(where, host);
    if (where.tcp) {
        const int one = 1;
        ::setsockopt(listener.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
    } else {
        // The daemon owns its path: a stale socket from a previous
        // (killed) instance is reclaimed, like the stores' temp files.
        ::unlink(where.path.c_str());
    }
    if (::bind(listener.fd(), listener.addr(), listener.addrLen()) != 0) {
        blab_fatal("bind(", where.tcp ? config_.listen : where.path,
                   "): ", std::strerror(errno));
    }
    if (::listen(listener.fd(), 64) != 0)
        blab_fatal("listen(): ", std::strerror(errno));

    if (where.tcp) {
        sockaddr_in bound{};
        socklen_t bound_len = sizeof bound;
        ::getsockname(listener.fd(),
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len);
        char text[INET_ADDRSTRLEN] = "0.0.0.0";
        ::inet_ntop(AF_INET, &bound.sin_addr, text, sizeof text);
        address_ = "tcp:" + std::string(text) + ":" +
                   std::to_string(ntohs(bound.sin_port));
    } else {
        socketPath_ = where.path;
        address_ = "unix:" + socketPath_;
    }
    listenFd_ = listener.release();
    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Daemon::acceptLoop()
{
    while (!draining_.load(std::memory_order_relaxed)) {
        pollfd entry{};
        entry.fd = listenFd_;
        entry.events = POLLIN;
        const int ready = ::poll(&entry, 1, kPollMs);
        if (ready <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        setReceiveTimeout(fd);
        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        readerThreads_.emplace_back(
            [this, connection = std::move(connection)]() mutable {
                readerLoop(std::move(connection));
            });
    }
}

void
Daemon::respond(Connection &connection, const Response &response)
{
    const std::string payload = encodeResponse(response);
    const std::string header =
        frameHeader(static_cast<std::uint32_t>(payload.size()));
    std::lock_guard<std::mutex> lock(connection.writeMutex);
    if (writeAll(connection.fd, header.data(), header.size()))
        writeAll(connection.fd, payload.data(), payload.size());
}

void
Daemon::readerLoop(std::shared_ptr<Connection> connection)
{
    std::string payload;
    bool open = true;
    while (open) {
        switch (readFrame(connection->fd, payload)) {
          case FrameStatus::Timeout:
            if (draining_.load(std::memory_order_relaxed))
                open = false;
            continue;
          case FrameStatus::Eof:
          case FrameStatus::Failed:
            // Disconnects (including mid-request: admitted work still
            // completes; only its response write fails) end the
            // reader, never the daemon.
            open = false;
            continue;
          case FrameStatus::Oversized: {
            Response refusal;
            refusal.status = ResponseStatus::Error;
            refusal.message = "frame exceeds 1 MiB limit";
            respond(*connection, refusal);
            open = false;
            continue;
          }
          case FrameStatus::Frame:
            break;
        }

        if (draining_.load(std::memory_order_relaxed)) {
            Response busy;
            busy.status = ResponseStatus::Draining;
            respond(*connection, busy);
            continue;
        }

        Request request;
        std::string error;
        if (!decodeRequest(payload, request, error)) {
            Response refusal;
            refusal.status = ResponseStatus::Error;
            refusal.requestId = request.requestId;
            refusal.message = "malformed request: " + error;
            respond(*connection, refusal);
            // Fail closed: a peer speaking the wrong protocol gets
            // one diagnostic, not a parsing loop.
            open = false;
            continue;
        }

        // Admission control on the reader thread: over the ceiling,
        // the only cost of a request is this reject write.
        std::size_t admitted =
            pending_.load(std::memory_order_relaxed);
        bool rejected = false;
        for (;;) {
            if (admitted >= config_.maxQueue) {
                rejected = true;
                break;
            }
            if (pending_.compare_exchange_weak(
                    admitted, admitted + 1,
                    std::memory_order_relaxed))
                break;
        }
        if (rejected) {
            rejectsCounter().add(1);
            Response busy;
            busy.status = ResponseStatus::Reject;
            busy.requestId = request.requestId;
            busy.retryAfterMs = config_.retryAfterMs;
            respond(*connection, busy);
            continue;
        }

        connection->beginRequest();
        pool_.submit([this, connection, request]() {
            const Response response = service_.handle(request);
            respond(*connection, response);
            pending_.fetch_sub(1, std::memory_order_relaxed);
            connection->endRequest();
        });
    }
    // Admitted requests may still be evaluating; their responses
    // write through this fd, so close only once the last one is out.
    connection->waitQuiet();
    ::close(connection->fd);
    connection->fd = -1;
}

void
Daemon::requestDrain()
{
    draining_.store(true, std::memory_order_relaxed);
}

void
Daemon::waitStopped()
{
    if (!started_ || stopped_)
        return;
    blab_assert(draining_.load(), "waitStopped() before drain");
    acceptThread_.join();
    // Every admitted request runs to completion and responds; the
    // pool's fail-fast rethrow is deliberately fatal here -- handler
    // exceptions are converted to Error responses inside the service,
    // so anything surfacing past it is a daemon bug.
    pool_.waitIdle();
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        readers.swap(readerThreads_);
    }
    for (std::thread &reader : readers)
        reader.join();
    ::close(listenFd_);
    listenFd_ = -1;
    if (!socketPath_.empty())
        ::unlink(socketPath_.c_str());
    stopped_ = true;
}

} // namespace branchlab::serve
