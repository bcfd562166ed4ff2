#include "serve/client.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/bytes.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace branchlab::serve
{

namespace
{

bool
writeAll(int fd, const void *data, std::size_t size)
{
    const char *cursor = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t wrote =
            ::send(fd, cursor, size, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        cursor += wrote;
        size -= static_cast<std::size_t>(wrote);
    }
    return true;
}

/** 1 = filled, 0 = clean EOF before the first byte, -1 = failure. */
int
readExact(int fd, void *data, std::size_t size)
{
    char *cursor = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::read(fd, cursor + got, size - got);
        if (n == 0)
            return got == 0 ? 0 : -1;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        got += static_cast<std::size_t>(n);
    }
    return 1;
}

} // namespace

Client::Client(const std::string &address)
{
    std::string_view spec = address;
    if (spec.substr(0, 4) == "tcp:") {
        spec.remove_prefix(4);
        const std::size_t colon = spec.rfind(':');
        if (colon == std::string_view::npos)
            blab_fatal("tcp address needs host:port, got '", address,
                       "'");
        const std::string host(spec.substr(0, colon));
        const auto port = parseOptionNumber<std::uint16_t>(
            "the tcp port", spec.substr(colon + 1));
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            blab_fatal("socket(): ", std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        const std::string target =
            host.empty() || host == "0.0.0.0" ? "127.0.0.1" : host;
        if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1)
            blab_fatal("unparsable tcp host '", target, "'");
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) != 0) {
            const int saved = errno;
            ::close(fd_);
            fd_ = -1;
            blab_fatal("connect(", address,
                       "): ", std::strerror(saved));
        }
        return;
    }
    if (spec.substr(0, 5) == "unix:")
        spec.remove_prefix(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (spec.empty() || spec.size() >= sizeof addr.sun_path)
        blab_fatal("bad unix socket path '", address, "'");
    std::memcpy(addr.sun_path, spec.data(), spec.size());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
        blab_fatal("socket(): ", std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        blab_fatal("connect(", address, "): ", std::strerror(saved));
    }
}

Client::Client(Client &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Client::sendRaw(std::string_view bytes)
{
    blab_assert(fd_ >= 0, "client is closed");
    if (!writeAll(fd_, bytes.data(), bytes.size()))
        blab_fatal("send: ", std::strerror(errno));
}

void
Client::sendFrame(std::string_view payload)
{
    const std::string header =
        frameHeader(static_cast<std::uint32_t>(payload.size()));
    sendRaw(header);
    sendRaw(payload);
}

bool
Client::receive(Response &response)
{
    blab_assert(fd_ >= 0, "client is closed");
    std::uint8_t header[4];
    const int got = readExact(fd_, header, sizeof header);
    if (got == 0)
        return false;
    if (got < 0)
        blab_fatal("read: truncated response header");
    const std::uint32_t length = loadU32(header);
    if (length > kMaxFrameBytes)
        blab_fatal("response frame exceeds the 1 MiB limit");
    std::string payload(length, '\0');
    if (length > 0 && readExact(fd_, payload.data(), length) != 1)
        blab_fatal("read: truncated response payload");
    std::string error;
    if (!decodeResponse(payload, response, error))
        blab_fatal("undecodable response: ", error);
    return true;
}

Response
Client::call(const Request &request)
{
    sendFrame(encodeRequest(request));
    Response response;
    if (!receive(response))
        blab_fatal("server closed the connection mid-call");
    return response;
}

} // namespace branchlab::serve
