#include "serve/client.hh"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "serve/socket.hh"
#include "support/bytes.hh"
#include "support/logging.hh"

namespace branchlab::serve
{

Client::Client(const std::string &address)
{
    const SocketAddress where = splitAddress(address);
    const std::string host =
        where.host.empty() || where.host == "0.0.0.0" ? "127.0.0.1"
                                                      : where.host;
    Socket connected(where, host);
    if (::connect(connected.fd(), connected.addr(),
                  connected.addrLen()) != 0)
        blab_fatal("connect(", address, "): ", std::strerror(errno));
    fd_ = connected.release();
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
    const ReadExact got = readExact(fd_, header, sizeof header);
    if (got == ReadExact::Eof)
        return false;
    if (got == ReadExact::Failed)
        blab_fatal("read: truncated response header");
    const std::uint32_t length = loadU32(header);
    if (length > kMaxFrameBytes)
        blab_fatal("response frame exceeds the 1 MiB limit");
    std::string payload(length, '\0');
    if (length > 0 &&
        readExact(fd_, payload.data(), length) != ReadExact::Ok)
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
