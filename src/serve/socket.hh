/**
 * @file
 * The socket plumbing branchlabd's daemon and client share: one
 * address splitter, an owned socket that closes itself on every
 * failure path, and the two blocking I/O loops.
 *
 * Addresses are "unix:<path>", "tcp:<host>:<port>", or a bare path
 * (treated as unix:). What an empty tcp host means is each side's
 * own default: the daemon binds every interface, the client connects
 * to loopback.
 */

#ifndef BRANCHLAB_SERVE_SOCKET_HH
#define BRANCHLAB_SERVE_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/socket.h>

namespace branchlab::serve
{

/** A listen or connect address, split and checked. */
struct SocketAddress
{
    /** True for "tcp:<host>:<port>"; otherwise a unix socket. */
    bool tcp = false;
    /** The tcp host as written, before a side's default applies. */
    std::string host;
    std::uint16_t port = 0;
    /** The unix socket path. */
    std::string path;
};

/** Split @p address: the port through the checked number parser, a
 *  unix path against sockaddr_un's bound. Fatal (throwing) when the
 *  address is malformed. */
SocketAddress splitAddress(const std::string &address);

/** A stream socket and the sockaddr it is to bind or connect to,
 *  closed on destruction unless released. */
class Socket
{
  public:
    /** A socket for @p address, with @p host in place of its tcp
     *  host. Fatal (throwing) on an unparsable host or a failed
     *  socket(). */
    Socket(const SocketAddress &address, const std::string &host);
    ~Socket();

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return fd_; }

    const sockaddr *
    addr() const
    {
        return reinterpret_cast<const sockaddr *>(&storage_);
    }

    socklen_t addrLen() const { return addrLen_; }

    /** Hand the descriptor to the caller, who closes it. */
    int release();

  private:
    int fd_ = -1;
    sockaddr_storage storage_{};
    socklen_t addrLen_ = 0;
};

/** Write all of @p data; MSG_NOSIGNAL so a vanished peer surfaces as
 *  EPIPE instead of killing the process. */
bool writeAll(int fd, const void *data, std::size_t size);

enum class ReadExact
{
    Ok,
    /** Clean EOF before the first byte. */
    Eof,
    /** Error or EOF mid-buffer (a truncated frame). */
    Failed,
};

/** Read exactly @p size bytes into @p data. */
ReadExact readExact(int fd, void *data, std::size_t size);

} // namespace branchlab::serve

#endif // BRANCHLAB_SERVE_SOCKET_HH
