#include "serve/socket.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <string_view>
#include <sys/un.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/strings.hh"

namespace branchlab::serve
{

SocketAddress
splitAddress(const std::string &address)
{
    SocketAddress split;
    std::string_view spec = address;
    if (spec.substr(0, 4) == "tcp:") {
        spec.remove_prefix(4);
        const std::size_t colon = spec.rfind(':');
        if (colon == std::string_view::npos)
            blab_fatal("tcp address needs host:port, got '", address,
                       "'");
        split.tcp = true;
        split.host = std::string(spec.substr(0, colon));
        split.port = parseOptionNumber<std::uint16_t>(
            "the tcp port", spec.substr(colon + 1));
        return split;
    }
    if (spec.substr(0, 5) == "unix:")
        spec.remove_prefix(5);
    if (spec.empty())
        blab_fatal("empty unix socket path");
    if (spec.size() >= sizeof(sockaddr_un::sun_path))
        blab_fatal("unix socket path too long: '", spec, "'");
    split.path = std::string(spec);
    return split;
}

Socket::Socket(const SocketAddress &address, const std::string &host)
{
    if (address.tcp) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(address.port);
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
            blab_fatal("unparsable tcp host '", host, "'");
        std::memcpy(&storage_, &addr, sizeof addr);
        addrLen_ = sizeof addr;
    } else {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, address.path.data(),
                    address.path.size());
        std::memcpy(&storage_, &addr, sizeof addr);
        addrLen_ = sizeof addr;
    }
    fd_ = ::socket(storage_.ss_family, SOCK_STREAM, 0);
    if (fd_ < 0)
        blab_fatal("socket(): ", std::strerror(errno));
}

Socket::~Socket()
{
    if (fd_ >= 0)
        ::close(fd_);
}

int
Socket::release()
{
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

bool
writeAll(int fd, const void *data, std::size_t size)
{
    const char *cursor = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t wrote = ::send(fd, cursor, size, MSG_NOSIGNAL);
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

ReadExact
readExact(int fd, void *data, std::size_t size)
{
    char *cursor = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::read(fd, cursor + got, size - got);
        if (n == 0)
            return got == 0 ? ReadExact::Eof : ReadExact::Failed;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return ReadExact::Failed;
        }
        got += static_cast<std::size_t>(n);
    }
    return ReadExact::Ok;
}

} // namespace branchlab::serve
